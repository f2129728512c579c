#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace perfbench
{

namespace
{

struct Record
{
    const char *name;
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t startNs;
    std::int64_t endNs;
    std::uint32_t tid;
};

std::atomic<bool> recording{false};
std::atomic<std::uint64_t> nextId{1};
std::atomic<std::uint32_t> nextTid{1};

std::mutex recordsMtx;
std::vector<Record> records; //!< under recordsMtx

thread_local std::uint64_t openSpan = 0; //!< innermost open span id
thread_local std::uint32_t threadTid = 0;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint32_t
currentTid()
{
    if (threadTid == 0)
        threadTid = nextTid.fetch_add(1);
    return threadTid;
}

} // namespace

void
SpanLog::enable(bool on)
{
    recording.store(on);
}

bool
SpanLog::enabled()
{
    return recording.load(std::memory_order_relaxed);
}

void
SpanLog::clear()
{
    std::lock_guard<std::mutex> lock(recordsMtx);
    records.clear();
}

std::uint64_t
SpanLog::count()
{
    std::lock_guard<std::mutex> lock(recordsMtx);
    return records.size();
}

std::map<std::string, double>
SpanLog::selfMs()
{
    std::lock_guard<std::mutex> lock(recordsMtx);
    std::unordered_map<std::uint64_t, std::int64_t> childNs;
    for (const Record &r : records) {
        if (r.parent != 0)
            childNs[r.parent] += r.endNs - r.startNs;
    }
    std::map<std::string, double> self;
    for (const Record &r : records) {
        const auto it = childNs.find(r.id);
        const std::int64_t covered = it == childNs.end() ? 0 : it->second;
        self[r.name] += static_cast<double>(r.endNs - r.startNs - covered)
            / 1e6;
    }
    return self;
}

bool
SpanLog::writeChromeTrace(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(recordsMtx);
    std::int64_t first = records.empty() ? 0 : records[0].startNs;
    for (const Record &r : records)
        first = std::min(first, r.startNs);
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Record &r = records[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                     i == 0 ? "" : ",", r.name, r.tid,
                     static_cast<double>(r.startNs - first) / 1e3,
                     static_cast<double>(r.endNs - r.startNs) / 1e3,
                     static_cast<unsigned long long>(r.id),
                     static_cast<unsigned long long>(r.parent));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

Span::Span(const char *span_name) : name(span_name)
{
    if (!SpanLog::enabled())
        return;
    id = nextId.fetch_add(1);
    parent = openSpan;
    openSpan = id;
    startNs = nowNs();
}

Span::~Span()
{
    if (id == 0)
        return;
    const std::int64_t end = nowNs();
    openSpan = parent;
    const std::uint32_t tid = currentTid();
    std::lock_guard<std::mutex> lock(recordsMtx);
    records.push_back({name, id, parent, startNs, end, tid});
}

} // namespace perfbench
