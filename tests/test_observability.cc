/**
 * @file
 * Whole-GPU observability tests: per-RU phase attribution, the
 * DRAM-bandwidth interval sampler, the chrome-trace exporter on a real
 * simulation, and the RunReport document.
 */

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <string>

#include "gpu/gpu.hh"
#include "gpu/policy_registry.hh"
#include "gpu/runner.hh"
#include "trace/json.hh"
#include "trace/run_report.hh"
#include "workload/benchmarks.hh"
#include "workload/scene.hh"

using namespace libra;

namespace
{

constexpr std::uint32_t W = 512;
constexpr std::uint32_t H = 288;

GpuConfig
sized(GpuConfig cfg)
{
    cfg.screenWidth = W;
    cfg.screenHeight = H;
    return cfg;
}

RunResult
run(GpuConfig cfg, std::uint32_t frames = 2)
{
    const Scene scene(findBenchmark("CCS"), W, H);
    Result<RunResult> r = runBenchmark(scene, cfg, frames);
    EXPECT_TRUE(r.isOk()) << r.status().toString();
    return std::move(*r);
}

} // namespace

TEST(PhaseAttribution, PhasesSumToFrameCycles)
{
    // The acceptance property of the phase tracker: at every frame the
    // six phases of every Raster Unit partition the frame's cycles
    // exactly — no gap, no double counting.
    const RunResult r = run(sized(GpuConfig::ptr(2, 4)), 3);
    ASSERT_EQ(r.frames.size(), 3u);
    for (const FrameStats &fs : r.frames) {
        ASSERT_EQ(fs.ruPhases.size(), 2u);
        for (const auto &phases : fs.ruPhases) {
            const std::uint64_t sum =
                std::accumulate(phases.begin(), phases.end(),
                                std::uint64_t{0});
            EXPECT_EQ(sum, fs.totalCycles);
        }
    }
}

TEST(PhaseAttribution, BaselineSingleRuAlsoPartitions)
{
    const RunResult r = run(sized(GpuConfig::baseline(8)), 2);
    for (const FrameStats &fs : r.frames) {
        ASSERT_EQ(fs.ruPhases.size(), 1u);
        const auto &phases = fs.ruPhases.front();
        EXPECT_EQ(std::accumulate(phases.begin(), phases.end(),
                                  std::uint64_t{0}),
                  fs.totalCycles);
        // A real frame must spend cycles actually shading, and the RU
        // is idle at least during the geometry phase.
        EXPECT_GT(phases[static_cast<std::size_t>(RuPhase::Shade)], 0u);
        EXPECT_GT(phases[static_cast<std::size_t>(RuPhase::Idle)], 0u);
    }
}

TEST(PhaseAttribution, CountersExposedThroughStatGroup)
{
    const RunResult r = run(sized(GpuConfig::ptr(2, 4)), 2);
    // The cumulative counter dump carries the same attribution under
    // "gpu.ru<N>.phase_<name>".
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < kNumRuPhases; ++p) {
        const std::string name = std::string("gpu.ru0.phase_")
            + ruPhaseName(static_cast<RuPhase>(p));
        const auto it = r.counters.find(name);
        ASSERT_NE(it, r.counters.end()) << name;
        total += it->second;
    }
    std::uint64_t frame_cycles = 0;
    for (const FrameStats &fs : r.frames)
        frame_cycles += fs.totalCycles;
    EXPECT_EQ(total, frame_cycles);
}

TEST(DramTimeline, SamplerMatchesFrameTotals)
{
    const RunResult r = run(sized(GpuConfig::ptr(2, 4)), 2);
    for (const FrameStats &fs : r.frames) {
        EXPECT_EQ(fs.dramTimelineInterval, kDramTimelineInterval);
        ASSERT_FALSE(fs.dramTimeline.empty());
        // Every sampled request happened inside the raster phase, so
        // the bucket count cannot exceed the phase's duration.
        EXPECT_LE((fs.dramTimeline.size() - 1) * kDramTimelineInterval,
                  fs.rasterCycles);
        const std::uint64_t sampled = std::accumulate(
            fs.dramTimeline.begin(), fs.dramTimeline.end(),
            std::uint64_t{0});
        EXPECT_GT(sampled, 0u);
        // The sampler counts raster-phase DRAM requests; the frame's
        // total covers the geometry phase too.
        EXPECT_LE(sampled, fs.dramReads + fs.dramWrites);
    }
}

TEST(TraceExport, RealRunProducesValidTrace)
{
    GpuConfig cfg = sized(GpuConfig::ptr(2, 4));
    cfg.traceEvents = true;
    const RunResult r = run(cfg, 2);
    ASSERT_NE(r.trace, nullptr);
    EXPECT_GT(r.trace->eventCount(), 0u);

    const auto doc = parseJson(r.trace->chromeTraceJson());
    ASSERT_TRUE(doc.isOk()) << doc.status().toString();
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    // Walk the stream: balanced sync spans per lane, balanced async
    // (tile) spans per id, non-decreasing timestamps.
    std::map<double, int> sync_depth;
    std::map<std::string, int> async_open;
    double last_ts = 0.0;
    std::size_t tile_spans = 0;
    for (const JsonValue &e : events->items) {
        const std::string &ph = e.find("ph")->str;
        if (ph == "M")
            continue;
        const double ts = e.find("ts")->number;
        EXPECT_GE(ts, last_ts);
        last_ts = ts;
        const double tid = e.find("tid")->number;
        if (ph == "B") {
            ++sync_depth[tid];
        } else if (ph == "E") {
            ASSERT_GE(--sync_depth[tid], 0);
        } else if (ph == "b" || ph == "e") {
            const std::string key = e.find("name")->str + "#"
                + std::to_string(
                      static_cast<std::uint64_t>(
                          e.find("id")->number));
            if (ph == "b") {
                ++async_open[key];
                ++tile_spans;
            } else {
                ASSERT_GE(--async_open[key], 0) << key;
            }
        }
    }
    for (const auto &[tid, depth] : sync_depth)
        EXPECT_EQ(depth, 0) << "tid " << tid;
    for (const auto &[key, open] : async_open)
        EXPECT_EQ(open, 0) << key;

    // Every tile of every frame got an async residency span.
    const TileGrid grid(W, H, cfg.tileSize);
    EXPECT_EQ(tile_spans,
              static_cast<std::size_t>(grid.tileCount()) * 2u);
}

TEST(TraceExport, NoSinkMeansNoTrace)
{
    const RunResult r = run(sized(GpuConfig::ptr(2, 4)), 2);
    EXPECT_EQ(r.trace, nullptr);
}

TEST(RunReport, DocumentParsesAndCarriesSchema)
{
    GpuConfig cfg = sized(GpuConfig::libra(2, 4));
    const RunResult r = run(cfg, 2);
    const std::string json = runReportJson(r);

    const auto doc = parseJson(json);
    ASSERT_TRUE(doc.isOk()) << doc.status().toString();
    EXPECT_EQ(doc->find("schema")->str, kRunReportSchema);

    const JsonValue *config = doc->find("config");
    ASSERT_NE(config, nullptr);
    EXPECT_EQ(config->find("benchmark")->str, "CCS");
    EXPECT_DOUBLE_EQ(config->find("raster_units")->number, 2.0);
    EXPECT_EQ(config->find("scheduler")->str, "libra");

    const JsonValue *frames = doc->find("frames");
    ASSERT_NE(frames, nullptr);
    ASSERT_EQ(frames->items.size(), 2u);
    for (const JsonValue &f : frames->items) {
        const auto total = static_cast<std::uint64_t>(
            f.find("total_cycles")->number);
        const JsonValue *rus = f.find("ru_phases");
        ASSERT_NE(rus, nullptr);
        ASSERT_EQ(rus->items.size(), 2u);
        for (const JsonValue &ru : rus->items) {
            std::uint64_t sum = 0;
            for (const auto &[name, v] : ru.members)
                sum += static_cast<std::uint64_t>(v.number);
            EXPECT_EQ(sum, total);
        }
        const JsonValue *tl = f.find("dram_timeline");
        ASSERT_NE(tl, nullptr);
        EXPECT_TRUE(tl->find("samples")->isArray());
    }

    const JsonValue *counters = doc->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_FALSE(counters->members.empty());
    // Spot-check a counter that must exist on this config.
    EXPECT_NE(counters->find("gpu.ru1.tiles_rendered"), nullptr);
}

TEST(RunReport, SchedulerEchoesRegistryName)
{
    // The config echo names the registry preset, so a Rendering
    // Elimination run is told apart from its scheduling policy alone.
    // A frameless result carries the config; nothing is simulated.
    for (const PolicyInfo &p : policyRegistry()) {
        RunResult r;
        r.benchmark = "CCS";
        ASSERT_TRUE(applyPolicy(r.config, p.name).isOk());
        const auto doc = parseJson(runReportJson(r));
        ASSERT_TRUE(doc.isOk()) << doc.status().toString();
        const JsonValue *config = doc->find("config");
        ASSERT_NE(config, nullptr);
        EXPECT_EQ(config->find("scheduler")->str, p.name);
    }
}

TEST(RunReport, SweepReportWrapsRuns)
{
    const RunResult r = run(sized(GpuConfig::baseline(8)), 2);
    const std::string json = sweepReportJson({r, r});
    const auto doc = parseJson(json);
    ASSERT_TRUE(doc.isOk()) << doc.status().toString();
    EXPECT_EQ(doc->find("schema")->str, kRunReportSetSchema);
    ASSERT_NE(doc->find("runs"), nullptr);
    ASSERT_EQ(doc->find("runs")->items.size(), 2u);
    EXPECT_EQ(doc->find("runs")->items[0].find("schema")->str,
              kRunReportSchema);
}
