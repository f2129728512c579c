/**
 * @file
 * Checkpoint restore-contract tests (DESIGN.md §10).
 *
 * The contract under test is byte-identity: a run restored from a
 * frame-F snapshot must finish with counter dumps, RunReports and
 * Chrome traces identical to the uninterrupted run, and a restore under
 * an armed fault plan must be deterministic. On top sit the sweep-layer
 * behaviors: warm-prefix forking of threshold sweeps (fig19-style),
 * periodic checkpoint files named by their key, and the kill-mid-sweep
 * → restore round trip, also with two workers sharing one dir.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "check/fault_injector.hh"
#include "check/snapshot.hh"
#include "gpu/gpu_config.hh"
#include "gpu/runner.hh"
#include "sim/sweep.hh"
#include "trace/run_report.hh"
#include "workload/benchmarks.hh"
#include "workload/scene.hh"

using namespace libra;

namespace
{

constexpr std::uint32_t kWidth = 128;
constexpr std::uint32_t kHeight = 64;
constexpr std::uint32_t kFrames = 4;

GpuConfig
smallConfig()
{
    GpuConfig cfg = GpuConfig::libra(2, 4);
    cfg.screenWidth = kWidth;
    cfg.screenHeight = kHeight;
    return cfg;
}

std::string
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / ("libra_ckpt_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

/** The file names in @p dir, sorted. */
std::vector<std::string>
listDir(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

/** Checkpoint file name of a CCS run of @p cfg from @p first_frame
 *  after @p frames_done frames. */
std::string
ckptName(const GpuConfig &cfg, std::uint32_t first_frame,
         std::uint32_t frames_done)
{
    SnapshotHeader key;
    key.configHash = cfg.configHash();
    key.sceneHash = snapshotSceneHash("CCS", kWidth, kHeight);
    key.firstFrame = first_frame;
    key.framesDone = frames_done;
    return keyedSnapshotFileName("ckpt", key, ".lsnp");
}

/** Render @p prefix frames and return the captured snapshot image. */
std::shared_ptr<std::vector<std::uint8_t>>
capturePrefix(const Scene &scene, const GpuConfig &cfg,
              std::uint32_t prefix)
{
    CheckpointPlan plan;
    plan.captureAfter = std::make_shared<std::vector<std::uint8_t>>();
    plan.captureAfterFrames = prefix;
    Result<RunResult> r = runBenchmark(scene, cfg, prefix, 0, plan);
    EXPECT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_FALSE(plan.captureAfter->empty());
    return plan.captureAfter;
}

/** Fork a full run from @p image. */
RunResult
forkFrom(const Scene &scene, const GpuConfig &cfg,
         std::shared_ptr<std::vector<std::uint8_t>> image)
{
    CheckpointPlan plan;
    plan.warmStart = std::move(image);
    Result<RunResult> r = runBenchmark(scene, cfg, kFrames, 0, plan);
    EXPECT_TRUE(r.isOk()) << r.status().toString();
    return std::move(*r);
}

} // namespace

TEST(Checkpoint, ForkVsColdByteIdentical)
{
    const Scene scene(findBenchmark("CCS"), kWidth, kHeight);
    GpuConfig cfg = smallConfig();
    cfg.traceEvents = true;

    Result<RunResult> cold = runBenchmark(scene, cfg, kFrames, 0);
    ASSERT_TRUE(cold.isOk()) << cold.status().toString();

    for (std::uint32_t ckpt = 1; ckpt < kFrames; ++ckpt) {
        const RunResult forked =
            forkFrom(scene, cfg, capturePrefix(scene, cfg, ckpt));
        // Byte identity at every level: full counter dump, serialized
        // report, Chrome trace export.
        EXPECT_EQ(forked.counters, cold->counters) << "ckpt=" << ckpt;
        EXPECT_EQ(runReportJson(forked), runReportJson(*cold))
            << "ckpt=" << ckpt;
        ASSERT_NE(forked.trace, nullptr);
        ASSERT_NE(cold->trace, nullptr);
        EXPECT_EQ(forked.trace->chromeTraceJson(),
                  cold->trace->chromeTraceJson())
            << "ckpt=" << ckpt;
    }
}

TEST(Checkpoint, WarmPrefixHashAcceptsThresholdVariants)
{
    // The whole point of warm-prefix forking: a snapshot captured
    // under one threshold setting restores into a run whose config
    // differs only in the thresholds — and the result equals that
    // run's own cold execution.
    const Scene scene(findBenchmark("CCS"), kWidth, kHeight);
    GpuConfig donor = smallConfig();
    donor.sched.resizeThreshold = 0.0025;
    GpuConfig variant = smallConfig();
    variant.sched.resizeThreshold = 0.05;
    ASSERT_NE(donor.configHash(), variant.configHash());
    ASSERT_EQ(donor.warmPrefixHash(), variant.warmPrefixHash());

    const auto image = capturePrefix(scene, donor, 2);
    const RunResult forked = forkFrom(scene, variant, image);
    Result<RunResult> cold = runBenchmark(scene, variant, kFrames, 0);
    ASSERT_TRUE(cold.isOk()) << cold.status().toString();
    EXPECT_EQ(forked.counters, cold->counters);

    // A config differing in *machine shape* must be refused (and fall
    // back cold) — warmPrefixHash covers thresholds only.
    GpuConfig other = smallConfig();
    other.sched.policy = SchedulerPolicy::Scanline;
    ASSERT_NE(other.warmPrefixHash(), donor.warmPrefixHash());
    const RunResult fallback = forkFrom(scene, other, image);
    Result<RunResult> other_cold =
        runBenchmark(scene, other, kFrames, 0);
    ASSERT_TRUE(other_cold.isOk());
    EXPECT_EQ(fallback.counters, other_cold->counters);
}

TEST(Checkpoint, RestoreUnderFaultsIsDeterministic)
{
    // checkpoint x fault-injection interplay: with a fault plan armed,
    // the same restore executed twice must be byte-identical — neither
    // the injected faults nor the restored starting state may carry
    // hidden run-to-run state.
    Result<FaultPlan> plan = FaultPlan::parse(
        "seed=7;dropfill:l2@every=64;dramstall@every=256,ticks=120");
    ASSERT_TRUE(plan.isOk()) << plan.status().toString();
    const Scene scene(findBenchmark("CCS"), kWidth, kHeight);

    const auto run_restored = [&] {
        const GpuConfig cfg = smallConfig();
        // The snapshot is captured fault-free (the quiesced prefix);
        // the fault plan arms the *resumed* frames.
        const auto image = capturePrefix(scene, cfg, 2);
        GpuConfig faulty = cfg;
        faulty.faults = std::make_shared<FaultInjector>(*plan, 0);
        CheckpointPlan restore;
        restore.warmStart = image;
        Result<RunResult> r =
            runBenchmark(scene, faulty, kFrames, 0, restore);
        EXPECT_TRUE(r.isOk()) << r.status().toString();
        return std::move(*r);
    };

    const RunResult first = run_restored();
    const RunResult second = run_restored();
    EXPECT_EQ(first.counters, second.counters);
    EXPECT_EQ(runReportJson(first), runReportJson(second));
}

TEST(Checkpoint, WarmPrefixSweepMatchesColdSweepAndCountsForks)
{
    // A fig19-style threshold sweep forked from one shared warm
    // prefix must produce exactly the cold sweep's results, and the
    // outcome must report every group member as forked.
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    std::vector<SweepJob> jobs;
    for (const double thr : {0.0, 0.0025, 0.01, 0.05}) {
        GpuConfig cfg = smallConfig();
        cfg.sched.resizeThreshold = thr;
        jobs.push_back(SweepJob{&ccs, cfg, kFrames, 0});
    }
    // A singleton job (different benchmark) must not join any group.
    const BenchmarkSpec &sus = findBenchmark("SuS");
    jobs.push_back(SweepJob{&sus, smallConfig(), kFrames, 0});

    SweepRunner pool(2);
    SceneCache cache;
    SweepOutcome cold =
        pool.runWithPolicy(jobs, SweepPolicy{}, &cache);
    SweepPolicy warm_policy;
    warm_policy.checkpoint.warmPrefixFrames = 2;
    SweepOutcome warm = pool.runWithPolicy(jobs, warm_policy, &cache);

    ASSERT_EQ(cold.jobs.size(), warm.jobs.size());
    EXPECT_EQ(warm.warmPrefixForks, 4u);
    EXPECT_EQ(cold.warmPrefixForks, 0u);
    for (std::size_t i = 0; i < cold.jobs.size(); ++i) {
        ASSERT_TRUE(cold.jobs[i].result.isOk())
            << cold.jobs[i].result.status().toString();
        ASSERT_TRUE(warm.jobs[i].result.isOk())
            << warm.jobs[i].result.status().toString();
        EXPECT_EQ(cold.jobs[i].result->counters,
                  warm.jobs[i].result->counters)
            << "job " << i;
        EXPECT_EQ(runReportJson(*cold.jobs[i].result),
                  runReportJson(*warm.jobs[i].result))
            << "job " << i;
    }
}

TEST(Checkpoint, WarmPrefixForkingDisabledUnderFaultPlan)
{
    // Injected faults are positional; forking would change what each
    // job observes, so an armed plan must turn forking off while the
    // sweep still completes deterministically.
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    std::vector<SweepJob> jobs;
    for (const double thr : {0.0, 0.05}) {
        GpuConfig cfg = smallConfig();
        cfg.sched.resizeThreshold = thr;
        jobs.push_back(SweepJob{&ccs, cfg, kFrames, 0});
    }
    SweepPolicy policy;
    policy.checkpoint.warmPrefixFrames = 2;
    Result<FaultPlan> plan =
        FaultPlan::parse("seed=3;dropfill:l2@every=128");
    ASSERT_TRUE(plan.isOk());
    policy.faults = *plan;

    SweepRunner pool(2);
    SceneCache cache;
    SweepOutcome out = pool.runWithPolicy(jobs, policy, &cache);
    EXPECT_EQ(out.warmPrefixForks, 0u);
    for (const JobOutcome &o : out.jobs)
        ASSERT_TRUE(o.result.isOk()) << o.result.status().toString();
}

TEST(Checkpoint, KillMidRunResumesFromFreshestSnapshot)
{
    // The CI round trip in miniature: a run dies mid-way (simulated by
    // only rendering a prefix), a second invocation restores from the
    // checkpoint dir and must finish with the uninterrupted run's
    // exact results.
    const GpuConfig cfg = smallConfig();
    const Scene scene(findBenchmark("CCS"), kWidth, kHeight);
    const std::string dir = scratchDir("resume");

    Result<RunResult> cold = runBenchmark(scene, cfg, kFrames, 0);
    ASSERT_TRUE(cold.isOk());

    // "Killed" after 3 of 4 frames, checkpointing every frame.
    CheckpointPlan writing;
    writing.dir = dir;
    writing.every = 1;
    Result<RunResult> partial =
        runBenchmark(scene, cfg, 3, 0, writing);
    ASSERT_TRUE(partial.isOk()) << partial.status().toString();

    // Frames 1 and 2 are checkpointed; the final frame of a run never
    // is (the run is already done).
    EXPECT_EQ(listDir(dir), (std::vector<std::string>{
                                ckptName(cfg, 0, 1), ckptName(cfg, 0, 2)}));

    CheckpointPlan resume;
    resume.dir = dir;
    resume.restore = true;
    Result<RunResult> resumed =
        runBenchmark(scene, cfg, kFrames, 0, resume);
    ASSERT_TRUE(resumed.isOk()) << resumed.status().toString();
    EXPECT_EQ(resumed->counters, cold->counters);
    EXPECT_EQ(runReportJson(*resumed), runReportJson(*cold));
    std::filesystem::remove_all(dir);
}

TEST(Checkpoint, PeriodicWritesSkipFinalFrameAndRespectEvery)
{
    const GpuConfig cfg = smallConfig();
    const Scene scene(findBenchmark("CCS"), kWidth, kHeight);
    const std::string dir = scratchDir("every");

    CheckpointPlan plan;
    plan.dir = dir;
    plan.every = 2;
    Result<RunResult> r = runBenchmark(scene, cfg, kFrames, 0, plan);
    ASSERT_TRUE(r.isOk()) << r.status().toString();

    // 4 frames, every 2: only frame 2 qualifies (frame 4 is final).
    EXPECT_EQ(listDir(dir), std::vector<std::string>{ckptName(cfg, 0, 2)});
    std::filesystem::remove_all(dir);
}

TEST(Checkpoint, RunsFromOtherFirstFramesKeepTheirOwnFiles)
{
    // Regression: checkpoint names once left out the first frame, so
    // a run from frame 4 overwrote the files of a run from frame 0,
    // and resuming the latter warned and ran cold.
    const GpuConfig cfg = smallConfig();
    const Scene scene(findBenchmark("CCS"), kWidth, kHeight);
    const std::string dir = scratchDir("first_frames");

    CheckpointPlan writing;
    writing.dir = dir;
    writing.every = 1;
    for (const std::uint32_t first : {0u, 4u}) {
        Result<RunResult> r = runBenchmark(scene, cfg, 3, first, writing);
        ASSERT_TRUE(r.isOk()) << r.status().toString();
    }

    Result<RunResult> cold = runBenchmark(scene, cfg, kFrames, 0);
    ASSERT_TRUE(cold.isOk());
    CheckpointPlan resume;
    resume.dir = dir;
    resume.restore = true;
    testing::internal::CaptureStderr();
    Result<RunResult> resumed =
        runBenchmark(scene, cfg, kFrames, 0, resume);
    const std::string err = testing::internal::GetCapturedStderr();
    ASSERT_TRUE(resumed.isOk()) << resumed.status().toString();
    EXPECT_EQ(err.find("falling back to a cold run"), std::string::npos)
        << err;
    EXPECT_EQ(resumed->counters, cold->counters);
    EXPECT_EQ(runReportJson(*resumed), runReportJson(*cold));
    std::filesystem::remove_all(dir);
}

TEST(Checkpoint, TwoWorkersShareOneDirAndResumeByteIdentical)
{
    // Two workers checkpoint into one dir at once, one job listed twice
    // so both race on the same files, then a 2-worker sweep resumes
    // from that dir and must reproduce the cold sweep byte for byte.
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    GpuConfig scanline = smallConfig();
    scanline.sched.policy = SchedulerPolicy::Scanline;
    const std::vector<SweepJob> jobs{
        SweepJob{&ccs, smallConfig(), kFrames, 0},
        SweepJob{&ccs, smallConfig(), kFrames, 0},
        SweepJob{&ccs, scanline, kFrames, 0}};
    const std::string dir = scratchDir("two_workers");

    SweepRunner pool(2);
    SceneCache cache;
    const SweepOutcome cold =
        pool.runWithPolicy(jobs, SweepPolicy{}, &cache);
    SweepPolicy writing;
    writing.checkpoint.dir = dir;
    writing.checkpoint.every = 1;
    const SweepOutcome written = pool.runWithPolicy(jobs, writing, &cache);
    for (const JobOutcome &o : written.jobs)
        ASSERT_TRUE(o.result.isOk()) << o.result.status().toString();
    // Frames 1-3 of each config, and no temp file left behind.
    EXPECT_EQ(listDir(dir).size(), 6u);

    // Every job restores (no torn file sends one back to a cold run).
    SweepPolicy resuming;
    resuming.checkpoint.dir = dir;
    resuming.checkpoint.fromCheckpoint = true;
    testing::internal::CaptureStderr();
    const SweepOutcome resumed =
        pool.runWithPolicy(jobs, resuming, &cache);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("falling back to a cold run"), std::string::npos)
        << err;
    ASSERT_EQ(cold.jobs.size(), resumed.jobs.size());
    for (std::size_t i = 0; i < cold.jobs.size(); ++i) {
        ASSERT_TRUE(cold.jobs[i].result.isOk())
            << cold.jobs[i].result.status().toString();
        ASSERT_TRUE(resumed.jobs[i].result.isOk())
            << resumed.jobs[i].result.status().toString();
        EXPECT_EQ(resumed.jobs[i].result->counters,
                  cold.jobs[i].result->counters)
            << "job " << i;
        EXPECT_EQ(runReportJson(*resumed.jobs[i].result),
                  runReportJson(*cold.jobs[i].result))
            << "job " << i;
    }
    std::filesystem::remove_all(dir);
}
