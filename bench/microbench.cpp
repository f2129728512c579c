/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrate: event
 * queue throughput, cache access rate, DRAM scheduling, rasterization
 * and binning speed. These guard the simulator's own performance (a
 * full FHD frame is hundreds of thousands of events). Plus the
 * snapshot container's checksum, which every farm cache hit pays.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "check/result_cache.hh"
#include "common/rng.hh"
#include "core/tile_scheduler.hh"
#include "dram/dram.hh"
#include "gpu/raster/rasterizer.hh"
#include "gpu/runner.hh"
#include "gpu/tiling/polygon_list_builder.hh"
#include "sim/event_queue.hh"
#include "sim/trace_sink.hh"
#include "workload/benchmarks.hh"
#include "workload/scene.hh"

using namespace libra;

namespace
{

/**
 * Event-queue throughput on the simulator's own traffic: a population
 * of self-rescheduling events drawing their delays from the delta mix
 * measured on the frame-loop workload — mostly 2 ticks (an L1 hit),
 * most of the rest 4-50, ~0.3% at least 64 ticks and ~0.02% at least a
 * wheel horizon (256) ahead.
 */
struct QueueTraffic
{
    static constexpr std::size_t kDeltas = 4096;
    static constexpr std::uint64_t kEvents = 200000;
    static constexpr int kPopulation = 64;

    QueueTraffic()
    {
        Rng rng(7);
        for (Tick &d : deltas) {
            const std::uint64_t r = rng.below(10000);
            if (r < 5400)
                d = 2;
            else if (r < 9968)
                d = 4 + rng.below(47);
            else if (r < 9998)
                d = 64 + rng.below(192);
            else
                d = 256 + rng.below(4096);
        }
    }

    /** One event: reschedules itself until the budget is spent. */
    struct Hop
    {
        QueueTraffic *t;

        void
        operator()() const
        {
            if (t->remaining == 0)
                return;
            --t->remaining;
            t->eq->scheduleAfter(t->deltas[t->cursor++ % kDeltas], *this);
        }
    };

    std::uint64_t
    run()
    {
        EventQueue queue;
        eq = &queue;
        remaining = kEvents;
        for (int i = 0; i < kPopulation; ++i)
            queue.schedule(static_cast<Tick>(i), Hop{this});
        queue.runUntil();
        return queue.eventsExecuted();
    }

    std::array<Tick, kDeltas> deltas;
    EventQueue *eq = nullptr;
    std::uint64_t remaining = 0;
    std::size_t cursor = 0;
};

void
BM_EventQueue(benchmark::State &state)
{
    QueueTraffic traffic;
    std::uint64_t events = 0;
    for (auto _ : state)
        events += traffic.run();
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueue);

void
BM_CacheAccess(benchmark::State &state)
{
    EventQueue eq;
    IdealMemory mem(eq, 10);
    Cache cache(eq, CacheConfig{}, mem);
    Rng rng(1);
    for (auto _ : state) {
        cache.access(MemReq{rng.below(1 << 20) * 64, 64, false,
                            TrafficClass::Texture, 0, nullptr});
        eq.runUntil();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

/**
 * DRAM scheduling under frame-loop-like load: a closed loop of 48
 * request streams keeps 48 requests in flight (about 24 of them in the
 * scheduler queues), so every decision runs the FR-FCFS window scan and
 * most issues erase from the middle of a queue. The streams form six
 * groups; a group reads random lines of one 2 KB window, as adjacent
 * warps read one texture region, and moves to a random window one
 * request in 32. That gives about 61% row hits and 39% row conflicts
 * (frame-loop: 77% hits). One request in eight is a write.
 */
struct DramTraffic
{
    static constexpr int kStreams = 48;
    static constexpr std::size_t kGroups = 6;
    static constexpr std::uint64_t kRequests = 100000;

    /** Completion of one stream's request: issue its next one. */
    struct Next
    {
        DramTraffic *t;
        int stream;

        void operator()(Tick) const { t->issue(stream); }
    };

    void
    issue(int stream)
    {
        if (remaining == 0)
            return;
        --remaining;
        Addr &base = window[static_cast<std::size_t>(stream) % kGroups];
        if (rng.below(32) == 0)
            base = rng.below(1 << 16) * 2048;
        const Addr line = base + rng.below(32) * 64;
        dram->access(MemReq{line, 64, rng.below(8) == 0,
                            TrafficClass::Texture, 0, Next{this, stream}});
    }

    /** @return requests serviced. */
    std::uint64_t
    run()
    {
        EventQueue queue;
        Dram d(queue, DramConfig{});
        dram = &d;
        rng = Rng(2);
        remaining = kRequests;
        window = {};
        for (int s = 0; s < kStreams; ++s)
            issue(s);
        queue.runUntil();
        return d.reads.value() + d.writes.value();
    }

    Rng rng{2};
    Dram *dram = nullptr;
    std::uint64_t remaining = 0;
    std::array<Addr, kGroups> window{};
};

void
BM_DramRandomAccess(benchmark::State &state)
{
    DramTraffic traffic;
    std::uint64_t requests = 0;
    for (auto _ : state) {
        requests += traffic.run();
        benchmark::DoNotOptimize(requests);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(requests));
}
BENCHMARK(BM_DramRandomAccess);

/**
 * Rasterization of one whole frame as the Raster Units see it: CCS
 * frame 0 at 960x544, binned into 32x32 tiles, every (primitive, tile)
 * pair rasterized in bin order. Setup is done once per primitive
 * outside the timed loop, as the Raster Unit memoizes it; one item is
 * one rasterize call.
 */
void
BM_RasterizeTile(benchmark::State &state)
{
    const Scene scene(findBenchmark("CCS"), 960, 544);
    const TileGrid grid(960, 544, 32);
    const BinnedFrame binned = binFrame(scene.frame(0), grid);
    std::vector<TriangleSetup> setups;
    setups.reserve(binned.tris.size());
    for (const Triangle &tri : binned.tris)
        setups.emplace_back(tri, scene.textures().get(tri.textureId));

    RasterOutput out;
    std::uint64_t calls = 0;
    for (auto _ : state) {
        for (TileId tile = 0; tile < binned.tileLists.size(); ++tile) {
            const IRect rect = grid.tileRect(tile);
            for (const std::uint32_t prim : binned.tileLists[tile]) {
                out.quads.clear();
                setups[prim].rasterize(rect, out);
                ++calls;
            }
        }
        benchmark::DoNotOptimize(out.quads.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(calls));
}
BENCHMARK(BM_RasterizeTile);

void
BM_BinFrame(benchmark::State &state)
{
    const Scene scene(findBenchmark("CCS"), 960, 544);
    const TileGrid grid(960, 544, 32);
    const FrameData frame = scene.frame(0);
    for (auto _ : state) {
        const BinnedFrame binned = binFrame(frame, grid);
        benchmark::DoNotOptimize(binned.binEntries());
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<int64_t>(
                                frame.triangleCount()));
}
BENCHMARK(BM_BinFrame);

void
BM_SceneFrameGeneration(benchmark::State &state)
{
    const Scene scene(findBenchmark("SuS"), 1920, 1080);
    std::uint32_t index = 0;
    for (auto _ : state) {
        const FrameData frame = scene.frame(index++);
        benchmark::DoNotOptimize(frame.triangleCount());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SceneFrameGeneration);

/**
 * Temperature ranking cost per frame: an FHD grid's worth of supertiles
 * sorted hottest-to-coldest from the previous frame's per-tile DRAM
 * feedback. This is the scheduler work LIBRA adds on top of PTR, so it
 * must stay a rounding error next to the frame it schedules.
 */
void
BM_TileSchedulerRanking(benchmark::State &state)
{
    const TileGrid grid(1920, 1080, 32);
    SchedulerConfig cfg;
    cfg.policy = SchedulerPolicy::TemperatureStatic;
    cfg.staticSupertileSize = 4;
    TileScheduler sched(cfg, grid, 2);

    FrameFeedback prev;
    prev.valid = true;
    prev.rasterCycles = 1'000'000;
    prev.textureHitRatio = 0.5; // below threshold: ranking active
    Rng rng(7);
    prev.tileDramAccesses.resize(grid.tileCount());
    prev.tileInstructions.resize(grid.tileCount());
    for (std::size_t i = 0; i < grid.tileCount(); ++i) {
        prev.tileDramAccesses[i] = rng.below(10000);
        prev.tileInstructions[i] = rng.below(100000);
    }

    for (auto _ : state) {
        sched.beginFrame(prev);
        benchmark::DoNotOptimize(sched.tilesRemaining());
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<int64_t>(grid.tileCount()));
}
BENCHMARK(BM_TileSchedulerRanking);

/**
 * Trace-sink append rate. Spans and counter samples land on component
 * lanes from inside the event loop, so the per-event cost bounds how
 * much tracing can slow a traced run. An untraced run has no sink: its
 * components hold null lanes and pay one pointer test per call site.
 */
void
BM_TraceSinkEmission(benchmark::State &state)
{
    constexpr int kBatch = 4096;
    for (auto _ : state) {
        TraceSink sink;
        TraceSink::Lane &lane = sink.lane("ru0");
        const std::uint32_t phase = sink.nameId("raster");
        const std::uint32_t occupancy = sink.nameId("warps");
        for (int i = 0; i < kBatch; ++i) {
            const Tick t = static_cast<Tick>(i) * 8;
            lane.begin(phase, t);
            lane.counter(occupancy, t + 2,
                         static_cast<std::uint64_t>(i & 63));
            lane.end(t + 7);
        }
        benchmark::DoNotOptimize(sink.eventCount());
    }
    state.SetItemsProcessed(state.iterations() * kBatch * 3);
}
BENCHMARK(BM_TraceSinkEmission);

/**
 * End-to-end cost of arming the invariant checker: the same reduced
 * run with GpuConfig::checkInvariants off (release default) and on
 * (CI). The delta is what the per-frame conservation-law sweep costs.
 */
void
BM_InvariantCheckerRun(benchmark::State &state)
{
    constexpr std::uint32_t kW = 320, kH = 180;
    static const Scene scene(findBenchmark("CCS"), kW, kH);
    GpuConfig cfg = GpuConfig::libra(2, 4);
    cfg.screenWidth = kW;
    cfg.screenHeight = kH;
    cfg.checkInvariants = state.range(0) != 0;

    for (auto _ : state) {
        Result<RunResult> r = runBenchmark(scene, cfg, 2);
        if (!r.isOk())
            state.SkipWithError(r.status().toString().c_str());
        else
            benchmark::DoNotOptimize(r->totalCycles());
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(state.range(0) != 0 ? "armed" : "unarmed");
}
BENCHMARK(BM_InvariantCheckerRun)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * Build and parse one result-cache entry holding a 5,910-byte report,
 * the round trip a farm miss's store and a hit's lookup each do half
 * of (the farm workload's CCS 256x128 2-frame entries are about this
 * size). Each pass checksums the section twice; one item is one byte
 * of the entry image.
 */
void
BM_SnapshotChecksum(benchmark::State &state)
{
    constexpr std::size_t kReportBytes = 5910;
    Rng rng(11);
    std::string report(kReportBytes, ' ');
    for (char &c : report)
        c = static_cast<char>('!' + rng.below(94));
    ResultCacheKey key;
    key.configHash = rng.next();
    key.sceneHash = rng.next();
    key.frames = 2;

    std::size_t image_bytes = 0;
    for (auto _ : state) {
        std::vector<std::uint8_t> image = buildResultCacheEntry(key, report);
        image_bytes = image.size();
        Result<std::string> back =
            parseResultCacheEntry(key, std::move(image));
        if (!back.isOk())
            state.SkipWithError(back.status().toString().c_str());
        benchmark::DoNotOptimize(back);
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<std::int64_t>(image_bytes));
}
BENCHMARK(BM_SnapshotChecksum);

} // namespace

BENCHMARK_MAIN();
