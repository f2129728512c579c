/**
 * @file
 * Exporter validity tests for the TraceSink: the chrome-trace JSON it
 * emits must parse with the in-tree parser, every synchronous B/E pair
 * must balance per lane, every async b/e pair must balance per
 * (name, id), and timestamps must be non-decreasing.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "sim/trace_sink.hh"
#include "trace/json.hh"

using namespace libra;

namespace
{

/**
 * Minimal chrome-trace checker. Walks a parsed document and verifies
 * the structural invariants every exporter output must satisfy; used
 * by both the unit tests here and the whole-GPU exporter test.
 */
struct TraceCheck
{
    std::string error; //!< empty = valid

    static TraceCheck
    run(const JsonValue &doc)
    {
        TraceCheck c;
        const JsonValue *events = doc.find("traceEvents");
        if (events == nullptr || !events->isArray()) {
            c.error = "missing traceEvents array";
            return c;
        }
        std::map<std::uint64_t, int> sync_depth; //!< per tid
        std::map<std::string, int> async_open;   //!< per name/id key
        double last_ts = 0.0;
        bool have_ts = false;
        for (const JsonValue &e : events->items) {
            const JsonValue *ph = e.find("ph");
            if (ph == nullptr || !ph->isString()) {
                c.error = "event without ph";
                return c;
            }
            if (ph->str == "M")
                continue; // metadata carries no timestamp
            const JsonValue *ts = e.find("ts");
            const JsonValue *tid = e.find("tid");
            if (ts == nullptr || !ts->isNumber() || tid == nullptr) {
                c.error = "event without ts/tid";
                return c;
            }
            if (have_ts && ts->number < last_ts) {
                c.error = "timestamps decrease";
                return c;
            }
            last_ts = ts->number;
            have_ts = true;

            const auto tid_v =
                static_cast<std::uint64_t>(tid->number);
            if (ph->str == "B") {
                ++sync_depth[tid_v];
            } else if (ph->str == "E") {
                if (--sync_depth[tid_v] < 0) {
                    c.error = "E without matching B";
                    return c;
                }
            } else if (ph->str == "b" || ph->str == "e") {
                const JsonValue *name = e.find("name");
                const JsonValue *id = e.find("id");
                if (name == nullptr || id == nullptr) {
                    c.error = "async event without name/id";
                    return c;
                }
                const std::string key =
                    name->str + "#"
                    + std::to_string(
                          static_cast<std::uint64_t>(id->number));
                if (ph->str == "b") {
                    ++async_open[key];
                } else if (--async_open[key] < 0) {
                    c.error = "async end without begin: " + key;
                    return c;
                }
            } else if (ph->str != "C" && ph->str != "i") {
                c.error = "unknown phase " + ph->str;
                return c;
            }
        }
        for (const auto &[tid_v, depth] : sync_depth) {
            if (depth != 0) {
                c.error = "unbalanced B/E on tid "
                    + std::to_string(tid_v);
                return c;
            }
        }
        for (const auto &[key, open] : async_open) {
            if (open != 0) {
                c.error = "unclosed async span " + key;
                return c;
            }
        }
        return c;
    }
};

} // namespace

TEST(TraceSink, ExportsValidBalancedTrace)
{
    TraceSink sink;
    TraceSink::Lane &a = sink.lane("a");
    TraceSink::Lane &b = sink.lane("b");
    const std::uint32_t frame = sink.nameId("frame");
    const std::uint32_t tile = sink.nameId("tile");
    const std::uint32_t bw = sink.nameId("bw");

    a.begin(frame, 0, 7);
    b.asyncBegin(tile, 1, 2);
    b.asyncBegin(tile, 2, 3); // overlapping tiles are legal
    b.counter(bw, 5, 42);
    b.asyncEnd(tile, 1, 8);
    b.asyncEnd(tile, 2, 9);
    a.end(10);

    const auto doc = parseJson(sink.chromeTraceJson());
    ASSERT_TRUE(doc.isOk()) << doc.status().toString();
    const TraceCheck check = TraceCheck::run(*doc);
    EXPECT_EQ(check.error, "");

    // Lane metadata names both pseudo-threads.
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    int meta = 0;
    for (const JsonValue &e : events->items) {
        if (e.find("ph")->str == "M")
            ++meta;
    }
    EXPECT_EQ(meta, 2);
    // 2 metadata + 7 recorded events.
    EXPECT_EQ(events->items.size(), 9u);
    EXPECT_EQ(sink.eventCount(), 7u);
}

TEST(TraceSink, CheckerCatchesBrokenTraces)
{
    // The checker itself must reject what it claims to reject.
    const auto unbalanced = parseJson(
        "{\"traceEvents\":[{\"ph\":\"B\",\"name\":\"x\",\"ts\":1,"
        "\"pid\":0,\"tid\":0}]}");
    ASSERT_TRUE(unbalanced.isOk());
    EXPECT_NE(TraceCheck::run(*unbalanced).error, "");

    const auto decreasing = parseJson(
        "{\"traceEvents\":["
        "{\"ph\":\"i\",\"name\":\"x\",\"s\":\"t\",\"ts\":5,\"pid\":0,"
        "\"tid\":0},"
        "{\"ph\":\"i\",\"name\":\"x\",\"s\":\"t\",\"ts\":4,\"pid\":0,"
        "\"tid\":0}]}");
    ASSERT_TRUE(decreasing.isOk());
    EXPECT_EQ(TraceCheck::run(*decreasing).error,
              "timestamps decrease");

    const auto stray_end = parseJson(
        "{\"traceEvents\":[{\"ph\":\"e\",\"name\":\"t\",\"cat\":\"c\","
        "\"id\":3,\"ts\":1,\"pid\":0,\"tid\":0}]}");
    ASSERT_TRUE(stray_end.isOk());
    EXPECT_NE(TraceCheck::run(*stray_end).error, "");
}

TEST(TraceSink, ExportIsSortedAcrossLanes)
{
    // Events appended out of global order (each lane is locally
    // ordered) come out merged by tick.
    TraceSink sink;
    TraceSink::Lane &a = sink.lane("a");
    TraceSink::Lane &b = sink.lane("b");
    const std::uint32_t n = sink.nameId("x");
    a.instant(n, 10);
    a.instant(n, 30);
    b.instant(n, 5);
    b.instant(n, 20);

    const auto doc = parseJson(sink.chromeTraceJson());
    ASSERT_TRUE(doc.isOk());
    std::vector<double> ts;
    for (const JsonValue &e : doc->find("traceEvents")->items) {
        if (e.find("ph")->str != "M")
            ts.push_back(e.find("ts")->number);
    }
    EXPECT_EQ(ts, (std::vector<double>{5, 10, 20, 30}));
}

TEST(TraceSink, LanesAndNamesAreInterned)
{
    TraceSink sink;
    TraceSink::Lane &a1 = sink.lane("a");
    TraceSink::Lane &a2 = sink.lane("a");
    EXPECT_EQ(&a1, &a2);
    EXPECT_EQ(sink.nameId("x"), sink.nameId("x"));
    EXPECT_NE(sink.nameId("x"), sink.nameId("y"));
}

TEST(TraceSink, ExportIsDeterministic)
{
    const auto build = [] {
        TraceSink sink;
        TraceSink::Lane &a = sink.lane("a");
        TraceSink::Lane &b = sink.lane("b");
        const std::uint32_t s = sink.nameId("span");
        a.begin(s, 1, 2);
        b.counter(sink.nameId("c"), 1, 3);
        a.end(4);
        return sink.chromeTraceJson();
    };
    EXPECT_EQ(build(), build());
}

TEST(IntervalSampler, BucketsByInterval)
{
    IntervalSampler s;
    s.reset(1000, 100);
    s.record(1000);
    s.record(1099);
    s.record(1100);
    s.record(1550, 4);
    s.record(900); // before the origin: dropped
    const auto &buckets = s.samples();
    ASSERT_EQ(buckets.size(), 6u);
    EXPECT_EQ(buckets[0], 2u);
    EXPECT_EQ(buckets[1], 1u);
    EXPECT_EQ(buckets[5], 4u);
    EXPECT_EQ(s.intervalTicks(), 100u);
    EXPECT_EQ(s.originTick(), 1000u);
}

TEST(IntervalSampler, ResetClearsAndRebases)
{
    IntervalSampler s;
    s.reset(0, 10);
    s.record(5);
    s.reset(100, 50);
    EXPECT_TRUE(s.samples().empty());
    s.record(149);
    ASSERT_EQ(s.samples().size(), 1u);
    EXPECT_EQ(s.samples()[0], 1u);
}

TEST(IntervalSampler, FlushToEmitsCounterEvents)
{
    IntervalSampler s;
    s.reset(200, 100);
    s.record(210);
    s.record(350, 2);

    TraceSink sink;
    TraceSink::Lane &lane = sink.lane("dram");
    s.flushTo(lane, sink.nameId("bw"));
    ASSERT_EQ(sink.eventCount(), 2u);
    const auto doc = parseJson(sink.chromeTraceJson());
    ASSERT_TRUE(doc.isOk());
    std::vector<std::pair<double, double>> samples;
    for (const JsonValue &e : doc->find("traceEvents")->items) {
        if (e.find("ph")->str == "C") {
            samples.emplace_back(
                e.find("ts")->number,
                e.find("args")->find("value")->number);
        }
    }
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_EQ(samples[0], (std::pair<double, double>{200, 1}));
    EXPECT_EQ(samples[1], (std::pair<double, double>{300, 2}));
}
