/**
 * @file
 * Tests for the simulation watchdog: the unit-level triggers, livelock
 * detection over a real event queue, the Gpu-level structured error
 * with its diagnostic dump, and the runner's skip-and-continue
 * degradation.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "gpu/gpu.hh"
#include "gpu/runner.hh"
#include "sim/event_queue.hh"
#include "sim/watchdog.hh"
#include "workload/benchmarks.hh"
#include "workload/scene.hh"

using namespace libra;

TEST(Watchdog, DisabledNeverFires)
{
    const WatchdogConfig cfg; // both triggers 0 = off
    const Watchdog wd(cfg, 0);
    EXPECT_TRUE(wd.check(0).isOk());
    EXPECT_TRUE(wd.check(maxTick / 2).isOk());
}

TEST(Watchdog, CycleBudgetTrips)
{
    WatchdogConfig cfg;
    cfg.cycleBudget = 100;
    const Watchdog wd(cfg, 1000); // budget is relative to the start
    EXPECT_TRUE(wd.check(1000).isOk());
    EXPECT_TRUE(wd.check(1100).isOk());
    const Status st = wd.check(1101);
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), ErrorCode::WatchdogExpired);
}

TEST(Watchdog, NoProgressTripsAndProgressRearms)
{
    WatchdogConfig cfg;
    cfg.noProgressCycles = 50;
    Watchdog wd(cfg, 0);
    EXPECT_TRUE(wd.check(50).isOk());
    EXPECT_EQ(wd.check(51).code(), ErrorCode::NoProgress);

    wd.progress(40);
    EXPECT_TRUE(wd.check(90).isOk());
    EXPECT_EQ(wd.lastProgress(), 40u);
    EXPECT_EQ(wd.check(91).code(), ErrorCode::NoProgress);

    // progress() never moves the mark backwards.
    wd.progress(10);
    EXPECT_EQ(wd.lastProgress(), 40u);
}

TEST(Watchdog, PastDeadlineTripsOnlyAtThePoll)
{
    // The clock is read once per kDeadlinePollInterval checks, so even a
    // deadline that has already passed goes unnoticed until that check.
    static_assert(Watchdog::kDeadlinePollInterval == 4096);
    WatchdogConfig cfg;
    cfg.deadline = std::chrono::steady_clock::now() - std::chrono::hours(1);
    const Watchdog wd(cfg, 0);
    for (Tick t = 1; t < Watchdog::kDeadlinePollInterval; ++t)
        ASSERT_TRUE(wd.check(t).isOk()) << "check " << t;
    const Status st = wd.check(Watchdog::kDeadlinePollInterval);
    ASSERT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), ErrorCode::DeadlineExceeded);
    EXPECT_NE(st.message().find("wall-clock deadline exceeded at tick"),
              std::string::npos)
        << st.message();
}

TEST(Watchdog, FutureOrNoDeadlineNeverTrips)
{
    WatchdogConfig ahead;
    ahead.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
    for (const WatchdogConfig &cfg : {ahead, WatchdogConfig{}}) {
        const Watchdog wd(cfg, 0);
        for (Tick t = 1; t <= 3 * Watchdog::kDeadlinePollInterval; ++t)
            ASSERT_TRUE(wd.check(t).isOk()) << "check " << t;
    }
}

TEST(Watchdog, DetectsEventQueueLivelock)
{
    // A self-rescheduling event keeps the queue busy forever without
    // any milestone: exactly the failure mode the no-progress trigger
    // exists for.
    EventQueue queue;
    std::function<void()> spin = [&] { queue.scheduleAfter(1, spin); };
    queue.scheduleAfter(1, spin);

    WatchdogConfig cfg;
    cfg.noProgressCycles = 200;
    const Watchdog wd(cfg, queue.now());

    Status st = Status::ok();
    for (int i = 0; i < 100000 && st.isOk(); ++i) {
        ASSERT_TRUE(queue.runOne());
        st = wd.check(queue.now());
    }
    ASSERT_FALSE(st.isOk()) << "livelock not detected";
    EXPECT_EQ(st.code(), ErrorCode::NoProgress);
    EXPECT_LE(queue.now(), 202u); // caught promptly, not after 100k
}

TEST(Watchdog, GpuBudgetExceededReturnsDiagnostics)
{
    GpuConfig cfg = GpuConfig::libra(2, 4);
    cfg.screenWidth = 256;
    cfg.screenHeight = 128;
    // Far below what any real frame needs: the frame must trip it.
    cfg.watchdog.cycleBudget = 50;

    const Scene scene(findBenchmark("CCS"), 256, 128);
    Gpu gpu(cfg);
    const Result<FrameStats> fs =
        gpu.tryRenderFrame(scene.frame(0), scene.textures());
    ASSERT_FALSE(fs.isOk());
    EXPECT_EQ(fs.status().code(), ErrorCode::WatchdogExpired);

    // The error must carry the diagnostic state dump.
    const std::string &msg = fs.status().message();
    EXPECT_NE(msg.find("tiles flushed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("RU0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("DRAM"), std::string::npos) << msg;

    // A wedged GPU refuses further frames instead of simulating on
    // inconsistent state.
    EXPECT_TRUE(gpu.wedged());
    const Result<FrameStats> again =
        gpu.tryRenderFrame(scene.frame(1), scene.textures());
    ASSERT_FALSE(again.isOk());
    EXPECT_EQ(again.status().code(), ErrorCode::FailedPrecondition);
}

TEST(Watchdog, GpuGenerousBudgetDoesNotFire)
{
    GpuConfig cfg = GpuConfig::libra(2, 4);
    cfg.screenWidth = 256;
    cfg.screenHeight = 128;
    cfg.watchdog.cycleBudget = std::uint64_t(1) << 40;
    cfg.watchdog.noProgressCycles = std::uint64_t(1) << 32;

    const Scene scene(findBenchmark("CCS"), 256, 128);
    Gpu gpu(cfg);
    const Result<FrameStats> fs =
        gpu.tryRenderFrame(scene.frame(0), scene.textures());
    ASSERT_TRUE(fs.isOk()) << fs.status().toString();
    EXPECT_GT(fs->totalCycles, 0u);
    EXPECT_FALSE(gpu.wedged());

    // Armed-but-untripped must match the unwatched simulation exactly.
    GpuConfig plain = cfg;
    plain.watchdog = WatchdogConfig{};
    Gpu ref(plain);
    const FrameStats rs = ref.renderFrame(scene.frame(0),
                                          scene.textures());
    EXPECT_EQ(fs->totalCycles, rs.totalCycles);
}

TEST(Watchdog, RunnerSkipsWedgedFramesAndContinues)
{
    GpuConfig cfg = GpuConfig::libra(2, 4);
    cfg.screenWidth = 256;
    cfg.screenHeight = 128;
    cfg.watchdog.cycleBudget = 50;

    const Result<RunResult> r =
        runBenchmark(findBenchmark("CCS"), cfg, 2);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_EQ(r->frames.size(), 0u);
    ASSERT_EQ(r->skippedFrames.size(), 2u);
    EXPECT_EQ(r->skippedFrames[0], 0u);
    EXPECT_EQ(r->skippedFrames[1], 1u);
}

TEST(Watchdog, RunnerRejectsInvalidConfigUpFront)
{
    GpuConfig cfg = GpuConfig::libra(2, 4);
    cfg.tileSize = 0;
    const Result<RunResult> r =
        runBenchmark(findBenchmark("CCS"), cfg, 1);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(r.status().message().find("CCS"), std::string::npos);
}

TEST(Watchdog, WedgedFrameCountersSurviveTheRebuild)
{
    // Regression: runBenchmark rebuilt the Gpu after a wedged frame
    // without dumping the wedged instance's stats, silently dropping
    // all the work that frame did before the watchdog fired. Counters
    // are now merged across rebuilds.
    GpuConfig cfg = GpuConfig::libra(2, 4);
    cfg.screenWidth = 256;
    cfg.screenHeight = 128;
    cfg.watchdog.cycleBudget = 50; // wedges every frame

    const Result<RunResult> one =
        runBenchmark(findBenchmark("CCS"), cfg, 1);
    ASSERT_TRUE(one.isOk()) << one.status().toString();
    ASSERT_EQ(one->skippedFrames.size(), 1u);

    // The partial frame ran for ~50 cycles before being killed: its
    // counters must appear in the dump.
    std::uint64_t total = 0;
    for (const auto &[name, value] : one->counters)
        total += value;
    EXPECT_GT(total, 0u);

    // A second wedged frame strictly adds: entrywise >= and a larger
    // grand total (the sum over two partial frames).
    const Result<RunResult> two =
        runBenchmark(findBenchmark("CCS"), cfg, 2);
    ASSERT_TRUE(two.isOk()) << two.status().toString();
    ASSERT_EQ(two->skippedFrames.size(), 2u);
    std::uint64_t total2 = 0;
    for (const auto &[name, value] : two->counters) {
        total2 += value;
        const auto it = one->counters.find(name);
        ASSERT_NE(it, one->counters.end()) << name;
        EXPECT_GE(value, it->second) << name;
    }
    EXPECT_GT(total2, total);
}
