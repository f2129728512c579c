#include "sim/trace_sink.hh"

#include <algorithm>

#include "check/snapshot.hh"
#include "common/log.hh"
#include "trace/json.hh"

namespace libra
{

TraceSink::Lane &
TraceSink::lane(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mtx);
    for (const auto &l : lanes) {
        if (l->laneName == name)
            return *l;
    }
    auto l = std::make_unique<Lane>();
    l->laneName = name;
    l->tid = static_cast<std::uint32_t>(lanes.size());
    lanes.push_back(std::move(l));
    return *lanes.back();
}

std::uint32_t
TraceSink::nameId(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mtx);
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == name)
            return static_cast<std::uint32_t>(i);
    }
    names.push_back(name);
    return static_cast<std::uint32_t>(names.size() - 1);
}

std::size_t
TraceSink::eventCount() const
{
    std::lock_guard<std::mutex> lock(mtx);
    std::size_t total = 0;
    for (const auto &l : lanes)
        total += l->buf.size();
    return total;
}

std::string
TraceSink::chromeTraceJson() const
{
    std::lock_guard<std::mutex> lock(mtx);

    // Merge all lanes into (tick, lane, append-order) order. Stable by
    // construction: the key includes the within-lane index.
    struct Ref
    {
        Tick tick;
        std::uint32_t lane;
        std::size_t index;
    };
    std::vector<Ref> refs;
    std::size_t total = 0;
    for (const auto &l : lanes)
        total += l->buf.size();
    refs.reserve(total);
    for (std::uint32_t li = 0; li < lanes.size(); ++li) {
        const auto &buf = lanes[li]->buf;
        for (std::size_t i = 0; i < buf.size(); ++i)
            refs.push_back(Ref{buf[i].tick, li, i});
    }
    std::sort(refs.begin(), refs.end(),
              [](const Ref &a, const Ref &b) {
                  if (a.tick != b.tick)
                      return a.tick < b.tick;
                  if (a.lane != b.lane)
                      return a.lane < b.lane;
                  return a.index < b.index;
              });

    JsonWriter w;
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();

    // Metadata: name each lane's pseudo-thread.
    for (const auto &l : lanes) {
        w.beginObject();
        w.key("ph");
        w.value("M");
        w.key("name");
        w.value("thread_name");
        w.key("pid");
        w.value(std::uint64_t{0});
        w.key("tid");
        w.value(static_cast<std::uint64_t>(l->tid));
        w.key("args");
        w.beginObject();
        w.key("name");
        w.value(l->laneName);
        w.endObject();
        w.endObject();
    }

    auto name_of = [&](std::uint32_t id) -> const std::string & {
        libra_assert(id < names.size(), "unregistered trace name ", id);
        return names[id];
    };

    for (const Ref &ref : refs) {
        const Event &e = lanes[ref.lane]->buf[ref.index];
        w.beginObject();
        switch (e.type) {
          case Ev::Begin:
            w.key("ph");
            w.value("B");
            w.key("name");
            w.value(name_of(e.name));
            break;
          case Ev::End:
            w.key("ph");
            w.value("E");
            break;
          case Ev::AsyncBegin:
            w.key("ph");
            w.value("b");
            w.key("name");
            w.value(name_of(e.name));
            w.key("cat");
            w.value("libra");
            w.key("id");
            w.value(e.value);
            break;
          case Ev::AsyncEnd:
            w.key("ph");
            w.value("e");
            w.key("name");
            w.value(name_of(e.name));
            w.key("cat");
            w.value("libra");
            w.key("id");
            w.value(e.value);
            break;
          case Ev::Counter:
            w.key("ph");
            w.value("C");
            w.key("name");
            w.value(name_of(e.name));
            break;
          case Ev::Instant:
            w.key("ph");
            w.value("i");
            w.key("name");
            w.value(name_of(e.name));
            w.key("s");
            w.value("t");
            break;
        }
        w.key("ts");
        w.value(static_cast<std::uint64_t>(e.tick));
        w.key("pid");
        w.value(std::uint64_t{0});
        w.key("tid");
        w.value(static_cast<std::uint64_t>(lanes[ref.lane]->tid));
        if (e.type == Ev::Counter) {
            w.key("args");
            w.beginObject();
            w.key("value");
            w.value(e.value);
            w.endObject();
        } else if (e.type == Ev::Begin && e.value != 0) {
            w.key("args");
            w.beginObject();
            w.key("v");
            w.value(e.value);
            w.endObject();
        }
        w.endObject();
    }

    w.endArray();
    w.key("displayTimeUnit");
    w.value("ns");
    w.endObject();
    return w.str();
}

Status
TraceSink::writeChromeTrace(const std::string &path) const
{
    return writeTextFile(path, chromeTraceJson());
}

void
TraceSink::exportState(SnapshotWriter &w) const
{
    std::lock_guard<std::mutex> lock(mtx);
    w.putU64(names.size());
    for (const std::string &n : names)
        w.putString(n);
    w.putU64(lanes.size());
    for (const auto &l : lanes) {
        w.putString(l->laneName);
        w.putU64(l->buf.size());
        for (const Event &e : l->buf) {
            w.putU64(e.tick);
            w.putU32(e.name);
            w.putU64(e.value);
            w.putU8(static_cast<std::uint8_t>(e.type));
        }
    }
}

void
TraceSink::importState(SnapshotReader &r)
{
    std::lock_guard<std::mutex> lock(mtx);
    if (!r.check(lanes.empty() && names.empty(),
                 "trace restore into a non-empty sink"))
        return;
    const std::uint64_t num_names = r.takeU64();
    for (std::uint64_t i = 0; r.ok() && i < num_names; ++i)
        names.push_back(r.takeString());
    const std::uint64_t num_lanes = r.takeU64();
    for (std::uint64_t li = 0; r.ok() && li < num_lanes; ++li) {
        auto l = std::make_unique<Lane>();
        l->laneName = r.takeString();
        l->tid = static_cast<std::uint32_t>(li);
        const std::uint64_t num_events = r.takeU64();
        for (std::uint64_t i = 0; r.ok() && i < num_events; ++i) {
            Event e;
            e.tick = r.takeU64();
            e.name = r.takeU32();
            e.value = r.takeU64();
            const std::uint8_t type = r.takeU8();
            if (!r.check(type <= static_cast<std::uint8_t>(Ev::Instant),
                         "trace event type out of range"))
                break;
            e.type = static_cast<Ev>(type);
            r.check(e.type == Ev::End || e.name < names.size(),
                    "trace event names an uninterned id");
            l->buf.push_back(e);
        }
        lanes.push_back(std::move(l));
    }
}

} // namespace libra
