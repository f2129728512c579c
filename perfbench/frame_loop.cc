/**
 * @file
 * frame-loop: one sequential simulation on a cold Gpu, repeated.
 *
 * CCS (memory-intensive) under the `libra` policy on 2 RUs x 4 cores at
 * 960x544 for 8 frames: the event loop, texture-L1/L2 MSHRs and DRAM
 * FR-FCFS carry most of the host time. The seed picks the first frame.
 * A request is one frame of a cold 8-frame simulation, and one
 * simulation is one repetition; every simulation of a run must produce
 * the same counter dump. After the measured loop, binning and the tile
 * scheduler's per-frame planning are replayed on their own so their
 * host cost (well under 1% of a frame) can be timed.
 */

#include <memory>
#include <optional>

#include "bench.hh"
#include "common/rng.hh"
#include "core/tile_scheduler.hh"
#include "gpu/gpu.hh"
#include "gpu/tiling/polygon_list_builder.hh"
#include "gpu/tiling/tile_grid.hh"
#include "spans.hh"
#include "workload/benchmarks.hh"
#include "workload/scene.hh"

namespace perfbench
{

using namespace libra;

namespace
{

constexpr const char *kTitle = "CCS";
constexpr std::uint32_t kWidth = 960;
constexpr std::uint32_t kHeight = 544;
constexpr std::uint32_t kFrames = 8;
constexpr int kSetupRepeats = 20;

} // namespace

void
runFrameLoop(const Options &opt, Report &rep)
{
    const BenchmarkSpec &spec = findBenchmark(kTitle);
    const GpuConfig cfg = machineConfig(kWidth, kHeight, "libra");
    Rng rng(opt.seed);
    const auto first_frame = static_cast<std::uint32_t>(rng.next() % 8);

    // Set-up: scene build plus Gpu construction. It is repeated before
    // every simulation as well, so its samples span the whole run.
    std::unique_ptr<Scene> scene;
    std::unique_ptr<Gpu> gpu;
    const auto set_up = [&] {
        Span root("bench.setup");
        gpu.reset();
        const Clock::time_point t0 = Clock::now();
        {
            Span s("workload.Scene");
            scene = std::make_unique<Scene>(spec, kWidth, kHeight);
        }
        {
            Span s("gpu.Gpu");
            gpu = std::make_unique<Gpu>(cfg);
        }
        rep.setup(since(t0));
    };
    for (int i = 0; i < kSetupRepeats; ++i)
        set_up();

    // Measured loop: cold simulations until the time budget is spent.
    // A request is one frame (Scene::frame + Gpu::tryRenderFrame).
    std::vector<double> sim_s, render_ms, gen_ms;
    std::optional<std::uint64_t> golden;
    RunResult last;
    std::uint64_t events = 0;
    int sims = 0;
    repeatWithin(opt.budget, [&] {
        set_up();
        Span root("bench.run");
        RunResult run;
        run.benchmark = kTitle;
        run.config = cfg;
        std::vector<double> frame_ms;
        double gen = 0.0;
        bool ok = true;
        for (std::uint32_t f = 0; f < kFrames && ok; ++f) {
            const Clock::time_point g0 = Clock::now();
            FrameData frame;
            {
                Span s("workload.Scene.frame");
                frame = scene->frame(first_frame + f);
            }
            const Clock::time_point r0 = Clock::now();
            gen += since(g0);
            Result<FrameStats> fs = [&] {
                Span s("gpu.Gpu.tryRenderFrame");
                return gpu->tryRenderFrame(frame, scene->textures());
            }();
            render_ms.push_back(since(r0) * 1e3);
            frame_ms.push_back(since(g0) * 1e3);
            ok = rep.op(fs.isOk(), "frame-loop frame "
                            + std::to_string(first_frame + f) + ": "
                            + (fs.isOk() ? "" : fs.status().toString()));
            if (ok)
                run.frames.push_back(std::move(*fs));
        }
        gen_ms.push_back(gen * 1e3);
        ++sims;
        if (!ok)
            return false;
        double wall = 0.0;
        for (const double ms : frame_ms)
            wall += ms / 1e3;
        rep.repetition(wall, frame_ms);
        sim_s.push_back(wall);
        run.counters = gpu->stats().values();
        const std::uint64_t hash = fnv1a(counterDump(run));
        if (!golden)
            golden = hash;
        rep.op(hash == *golden,
               "frame-loop simulation " + std::to_string(sims)
                   + " counter dump differs from the first");
        events = gpu->eventsExecuted();
        last = std::move(run);
        return true;
    });
    if (last.frames.size() != kFrames)
        return; // the first simulation failed; its failure is recorded
    rep.digest("frame-loop.counter_dump", *golden);
    const double median_sim_s = percentile(sim_s, 50);
    rep.note("sim_s", median_sim_s, "s");
    rep.note("simulations", sims, "count");
    rep.note("events_per_s", static_cast<double>(events) / median_sim_s,
             "1/s");
    rep.set("gpu.frame_ms", percentile(render_ms, 50));
    rep.set("workload.frame_gen_ms", percentile(gen_ms, 50));
    rep.exact("sim.events", events);
    rep.set("sim.ns_per_event",
            median_sim_s * 1e9 / static_cast<double>(events));
    rep.set("sim.events_per_s", static_cast<double>(events) / median_sim_s);
    reportModelCounts(rep, {&last});

    // Replay the functional stages outside the event loop: binning of
    // each frame, and the scheduler's planning on the feedback the
    // simulation recorded. Ranking cycles must match the simulation's.
    Span root("bench.verify");
    const TileGrid grid(kWidth, kHeight, cfg.tileSize);
    TileScheduler sched(cfg.sched, grid, cfg.rasterUnits);
    FrameFeedback feedback;
    std::uint64_t triangles = 0, entries = 0;
    double bin_s = 0.0, rank_s = 0.0;
    for (std::uint32_t f = 0; f < kFrames; ++f) {
        const FrameData frame = scene->frame(first_frame + f);
        triangles += frame.triangleCount();
        Clock::time_point t0 = Clock::now();
        {
            Span s("tiling.binFrame");
            entries += binFrame(frame, grid).binEntries();
        }
        bin_s += since(t0);
        t0 = Clock::now();
        {
            Span s("core.TileScheduler.beginFrame");
            sched.beginFrame(feedback);
        }
        rank_s += since(t0);
        const FrameStats &fs = last.frames[f];
        rep.op(sched.lastRankingCycles() == fs.rankingCycles,
               "frame-loop replayed ranking cycles of frame "
                   + std::to_string(first_frame + f));
        feedback.valid = true;
        feedback.rasterCycles = fs.rasterCycles;
        feedback.textureHitRatio = fs.textureHitRatio;
        feedback.tileDramAccesses = fs.tileDram;
        feedback.tileInstructions = fs.tileInstr;
    }
    rep.exact("workload.triangles", triangles);
    rep.exact("tiling.bin_entries", entries);
    rep.set("tiling.bin_ms", bin_s * 1e3);
    rep.set("core.rank_us", rank_s * 1e6);
}

} // namespace perfbench
