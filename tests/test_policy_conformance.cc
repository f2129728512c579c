/**
 * @file
 * Policy-conformance harness: every entry of the policy registry must
 * satisfy the same behavioral contract (DESIGN.md §13). The suite is
 * parameterized over the registry, so registering a new policy
 * automatically subjects it to all three legs:
 *
 *  (a) the invariant checker stays clean (conservation laws, exactly-
 *      once tile coverage — skipped tiles included);
 *  (b) running the same configuration twice yields byte-identical
 *      counter dumps (no hidden global state in the policy object);
 *  (c) snapshotting at frame k and restoring equals the uninterrupted
 *      run (exportState/importState capture the policy's whole state).
 *
 * The scene is ChE (Chess Elite): a UI-heavy title whose frames keep
 * a nonzero set of tiles bit-stable, so the Rendering Elimination
 * entries exercise real skips — leg (c) in particular proves the RE
 * signature tables survive a snapshot round-trip, because a restored
 * run that lost them would re-render tiles the cold run skipped and
 * diverge in every downstream counter.
 *
 * The file also pins the scheduler-phase attribution contract
 * (rankingCycles belongs to the policy layer: a policy that ranks
 * nothing reports zero, every frame) and the observable Rendering
 * Elimination behavior the EXPERIMENTS.md ablation relies on, down to
 * each frame's skip set surviving a journal replay, a checkpoint
 * restore and a warm-prefix fork.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gpu/gpu_config.hh"
#include "gpu/policy_registry.hh"
#include "gpu/runner.hh"
#include "sim/sweep.hh"
#include "workload/benchmarks.hh"
#include "workload/scene.hh"

using namespace libra;

namespace
{

constexpr std::uint32_t W = 320;
constexpr std::uint32_t H = 192;
constexpr std::uint32_t kFrames = 4;
constexpr std::uint32_t kCheckpointFrame = 2;

/** The conformance machine: the paper's 2x4 PTR shape with the named
 *  policy applied and every conservation law armed. */
GpuConfig
policyConfig(const std::string &name)
{
    GpuConfig cfg = GpuConfig::ptr(2, 4);
    const Status st = applyPolicy(cfg, name);
    EXPECT_TRUE(st.isOk()) << st.toString();
    cfg.screenWidth = W;
    cfg.screenHeight = H;
    cfg.checkInvariants = true;
    return cfg;
}

/** Shared scene: regenerating geometry per run would dominate. */
const Scene &
conformanceScene()
{
    static const Scene scene(findBenchmark("ChE"), W, H);
    return scene;
}

RunResult
run(const GpuConfig &cfg, std::uint32_t frames = kFrames)
{
    Result<RunResult> r = runBenchmark(conformanceScene(), cfg, frames);
    EXPECT_TRUE(r.isOk()) << r.status().toString();
    return r.isOk() ? std::move(*r) : RunResult{};
}

class PolicyConformance
    : public ::testing::TestWithParam<std::string>
{
};

std::vector<std::string>
registryNames()
{
    std::vector<std::string> names;
    for (const PolicyInfo &p : policyRegistry())
        names.push_back(p.name);
    return names;
}

} // namespace

// Legs (a) + (b): invariants clean, and two runs of the same config
// are byte-identical in counters and in every per-frame statistic.
TEST_P(PolicyConformance, CleanAndRepeatable)
{
    const GpuConfig cfg = policyConfig(GetParam());
    const RunResult first = run(cfg);
    const RunResult second = run(cfg);
    ASSERT_FALSE(first.frames.empty());
    EXPECT_EQ(first.counters, second.counters);
    EXPECT_EQ(first.frames, second.frames);
}

// Leg (c): snapshot at frame k, fork, finish — identical to the
// uninterrupted run. Exercises the policy's exportState/importState
// (adaptive controller state, RE signature tables).
TEST_P(PolicyConformance, SnapshotRestoreEqualsColdRun)
{
    const GpuConfig cfg = policyConfig(GetParam());
    const RunResult cold = run(cfg);
    ASSERT_EQ(cold.frames.size(), kFrames);

    CheckpointPlan capture;
    capture.captureAfter =
        std::make_shared<std::vector<std::uint8_t>>();
    capture.captureAfterFrames = kCheckpointFrame;
    Result<RunResult> prefix = runBenchmark(
        conformanceScene(), cfg, kCheckpointFrame, 0, capture);
    ASSERT_TRUE(prefix.isOk()) << prefix.status().toString();
    ASSERT_FALSE(capture.captureAfter->empty());

    CheckpointPlan fork;
    fork.warmStart = capture.captureAfter;
    Result<RunResult> forked =
        runBenchmark(conformanceScene(), cfg, kFrames, 0, fork);
    ASSERT_TRUE(forked.isOk()) << forked.status().toString();

    EXPECT_EQ(cold.counters, forked->counters);
    EXPECT_EQ(cold.frames, forked->frames);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, PolicyConformance, ::testing::ValuesIn(registryNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// ---------------------------------------------------------------------
// Phase attribution: rankingCycles belongs to the policy layer.
// ---------------------------------------------------------------------

// A policy that never ranks must report zero ranking cycles on every
// frame. The FramePlan is rebuilt by value each frame, so a stale
// value from a previous policy or frame cannot leak in.
TEST(PolicyPhaseAttribution, NonRankingPoliciesReportZero)
{
    for (const char *name : {"zorder", "scanline", "supertile", "re"}) {
        const RunResult r = run(policyConfig(name));
        ASSERT_FALSE(r.frames.empty()) << name;
        for (const FrameStats &fs : r.frames)
            EXPECT_EQ(fs.rankingCycles, 0u)
                << name << " frame " << fs.frameIndex;
    }
}

// The temperature policy ranks on every frame that has feedback:
// frame 0 has none (zero cycles), every later frame pays the
// TemperatureTable's modeled hardware cost.
TEST(PolicyPhaseAttribution, TemperatureRanksOnceFeedbackExists)
{
    const RunResult r = run(policyConfig("temperature"));
    ASSERT_EQ(r.frames.size(), kFrames);
    EXPECT_EQ(r.frames[0].rankingCycles, 0u);
    for (std::size_t f = 1; f < r.frames.size(); ++f)
        EXPECT_GT(r.frames[f].rankingCycles, 0u) << "frame " << f;
}

// ---------------------------------------------------------------------
// Rendering Elimination behavior pins (EXPERIMENTS.md ablation).
// ---------------------------------------------------------------------

namespace
{

/** RE behavior runs on a larger screen where ChE keeps ~1/3 of its
 *  tiles bit-stable frame over frame (the skip signal scales with
 *  resolution: more tiles -> more tiles no moving sprite touches). */
constexpr std::uint32_t kReWidth = 512;
constexpr std::uint32_t kReHeight = 288;
constexpr std::uint32_t kReFrames = 3;

GpuConfig
reBehaviorConfig(const char *policy_name)
{
    GpuConfig cfg = GpuConfig::ptr(2, 4);
    const Status st = applyPolicy(cfg, policy_name);
    EXPECT_TRUE(st.isOk()) << st.toString();
    cfg.screenWidth = kReWidth;
    cfg.screenHeight = kReHeight;
    cfg.checkInvariants = true;
    return cfg;
}

const Scene &
reBehaviorScene()
{
    static const Scene scene(findBenchmark("ChE"), kReWidth, kReHeight);
    return scene;
}

/** @p policy_name's RE behavior run under @p plan. A restore that
 *  falls back to a cold run fails the test: the run must really have
 *  continued from the plan's snapshot. */
RunResult
runReBehavior(const char *policy_name, const CheckpointPlan &plan = {})
{
    testing::internal::CaptureStderr();
    Result<RunResult> r = runBenchmark(
        reBehaviorScene(), reBehaviorConfig(policy_name), kReFrames, 0,
        plan);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("falling back to a cold run"), std::string::npos)
        << err;
    EXPECT_TRUE(r.isOk()) << r.status().toString();
    return r.isOk() ? std::move(*r) : RunResult{};
}

/** A fresh scratch path for one RE survival test. */
std::string
reScratchPath(const char *policy_name, const char *what)
{
    const std::filesystem::path path =
        std::filesystem::temp_directory_path()
        / (std::string("libra_re_") + policy_name + "_" + what);
    std::filesystem::remove_all(path);
    return path.string();
}

class ReSkipSet : public ::testing::TestWithParam<const char *>
{
};

} // namespace

TEST(RenderingElimination, SkipsStableTilesAfterFirstFrame)
{
    const RunResult r = runReBehavior("re");
    ASSERT_EQ(r.frames.size(), 3u);

    // Frame 0 has no previous signatures: nothing may be skipped.
    EXPECT_EQ(r.frames[0].reTilesSkipped, 0u);

    // ChE keeps a large stable region; later frames must skip.
    std::uint64_t total = 0;
    for (const FrameStats &fs : r.frames) {
        total += fs.reTilesSkipped;
        // The per-tile mask agrees with the scalar count.
        std::uint64_t marked = 0;
        for (const std::uint8_t s : fs.reSkippedTiles)
            marked += s;
        EXPECT_EQ(marked, fs.reTilesSkipped)
            << "frame " << fs.frameIndex;
    }
    EXPECT_GT(r.frames[1].reTilesSkipped, 0u);
    EXPECT_GT(r.frames[2].reTilesSkipped, 0u);

    // The cumulative counter is the sum of the per-frame counts, and
    // the weak/strong aliasing guard sees no collisions on real
    // content.
    const auto skipped = r.counters.find("gpu.re.tiles_skipped");
    ASSERT_NE(skipped, r.counters.end());
    EXPECT_EQ(skipped->second, total);
    const auto collisions =
        r.counters.find("gpu.re.signature_collisions");
    ASSERT_NE(collisions, r.counters.end());
    EXPECT_EQ(collisions->second, 0u);
}

TEST(RenderingElimination, SkippingSavesCyclesAndDram)
{
    const RunResult off = runReBehavior("zorder");
    const RunResult on = runReBehavior("re");
    ASSERT_EQ(off.frames.size(), 3u);
    ASSERT_EQ(on.frames.size(), 3u);

    // Frame 0 renders everything under both configs.
    EXPECT_EQ(off.frames[0].totalCycles, on.frames[0].totalCycles);

    // Steady frames skip a third of the screen: strictly cheaper.
    for (std::size_t f = 1; f < 3; ++f) {
        EXPECT_LT(on.frames[f].totalCycles, off.frames[f].totalCycles)
            << "frame " << f;
        EXPECT_LT(on.frames[f].dramWrites, off.frames[f].dramWrites)
            << "frame " << f;
    }
}

// Each frame's skip set (count and per-tile mask) is part of the
// result, so every way a sweep reuses finished frames must keep it.
TEST_P(ReSkipSet, SurvivesJournalResume)
{
    const RunResult cold = runReBehavior(GetParam());
    const std::string journal = reScratchPath(GetParam(), "journal");
    const std::vector<SweepJob> jobs{SweepJob{
        &findBenchmark("ChE"), reBehaviorConfig(GetParam()), kReFrames, 0}};
    SweepPolicy policy;
    policy.journalPath = journal;
    SweepRunner runner(1);
    ASSERT_EQ(runner.runWithPolicy(jobs, policy).failureCount(), 0u);

    policy.resume = true;
    const SweepOutcome resumed = runner.runWithPolicy(jobs, policy);
    ASSERT_EQ(resumed.replayedFromJournal, 1u);
    ASSERT_TRUE(resumed.jobs[0].result.isOk());
    EXPECT_EQ(resumed.jobs[0].result->frames, cold.frames);
    std::filesystem::remove(journal);
}

TEST_P(ReSkipSet, SurvivesCheckpointRestore)
{
    const RunResult cold = runReBehavior(GetParam());
    const std::string dir = reScratchPath(GetParam(), "ckpt");
    CheckpointPlan writing;
    writing.dir = dir;
    writing.every = 1;
    runReBehavior(GetParam(), writing);

    // Frames 1 and 2 are checkpointed; the restore starts from 2.
    CheckpointPlan restoring;
    restoring.dir = dir;
    restoring.restore = true;
    ASSERT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                            std::filesystem::directory_iterator()),
              2);
    EXPECT_EQ(runReBehavior(GetParam(), restoring).frames, cold.frames);
    std::filesystem::remove_all(dir);
}

TEST_P(ReSkipSet, SurvivesWarmPrefixFork)
{
    const RunResult cold = runReBehavior(GetParam());
    CheckpointPlan capture;
    capture.captureAfter = std::make_shared<std::vector<std::uint8_t>>();
    capture.captureAfterFrames = 2;
    runReBehavior(GetParam(), capture);
    ASSERT_FALSE(capture.captureAfter->empty());

    CheckpointPlan fork;
    fork.warmStart = capture.captureAfter;
    EXPECT_EQ(runReBehavior(GetParam(), fork).frames, cold.frames);
}

INSTANTIATE_TEST_SUITE_P(
    RePolicies, ReSkipSet, ::testing::Values("re", "re-libra"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param) == "re" ? "re" : "re_libra";
    });

// RE-off configurations must not even register the re.* counters —
// the golden counter dump (test_perf_contracts) depends on the
// counter tree being exactly the pre-RE tree when the flag is off.
TEST(RenderingElimination, CountersAbsentWhenDisabled)
{
    const RunResult r = run(policyConfig("zorder"));
    ASSERT_FALSE(r.counters.empty());
    for (const auto &[name, value] : r.counters)
        EXPECT_EQ(name.find("re."), std::string::npos) << name;
}

// ---------------------------------------------------------------------
// Registry hygiene.
// ---------------------------------------------------------------------

TEST(PolicyRegistry, NamesAreUniqueAndRoundTrip)
{
    std::vector<std::string> seen;
    for (const PolicyInfo &p : policyRegistry()) {
        for (const std::string &other : seen)
            EXPECT_NE(other, p.name);
        seen.push_back(p.name);

        // findPolicy and applyPolicy agree with the entry.
        const PolicyInfo *found = findPolicy(p.name);
        ASSERT_NE(found, nullptr) << p.name;
        EXPECT_EQ(found->sched, p.sched);
        EXPECT_EQ(found->renderingElimination, p.renderingElimination);

        GpuConfig cfg = GpuConfig::ptr(2, 4);
        ASSERT_TRUE(applyPolicy(cfg, p.name).isOk());
        EXPECT_EQ(cfg.sched.policy, p.sched);
        EXPECT_EQ(cfg.renderingElimination, p.renderingElimination);
        EXPECT_STREQ(policyNameFor(cfg), p.name);
    }
    EXPECT_GE(seen.size(), 7u);
}

TEST(PolicyRegistry, EveryNameIsAConfigSpec)
{
    // <name>[:RxC] is applyPolicy() on a default GpuConfig of that
    // shape (2x4 when omitted), and the parsed config echoes the name.
    struct Shape
    {
        const char *suffix;
        std::uint32_t rasterUnits, coresPerRu;
    };
    for (const PolicyInfo &p : policyRegistry()) {
        for (const Shape &shape :
             {Shape{"", 2, 4}, Shape{":1x8", 1, 8}, Shape{":4x2", 4, 2}}) {
            const std::string spec = std::string(p.name) + shape.suffix;
            Result<GpuConfig> parsed = parseConfigSpec(spec);
            ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
            GpuConfig want;
            want.rasterUnits = shape.rasterUnits;
            want.coresPerRu = shape.coresPerRu;
            ASSERT_TRUE(applyPolicy(want, p.name).isOk());
            EXPECT_EQ(parsed->configHash(), want.configHash()) << spec;
            EXPECT_STREQ(policyNameFor(*parsed), p.name) << spec;
        }

        // :S sets the static supertile size, and only the policies that
        // read it accept one.
        const std::string name = p.name;
        const bool takes_size = name == "supertile" || name == "temperature";
        for (const auto &[suffix, shape] :
             {std::pair{":8", ""}, std::pair{":8:4x2", ":4x2"}}) {
            Result<GpuConfig> sized = parseConfigSpec(name + suffix);
            ASSERT_EQ(sized.isOk(), takes_size) << name << suffix;
            if (!takes_size) {
                EXPECT_EQ(sized.status().code(), ErrorCode::InvalidArgument);
                continue;
            }
            Result<GpuConfig> want = parseConfigSpec(name + shape);
            ASSERT_TRUE(want.isOk());
            want->sched.staticSupertileSize = 8;
            EXPECT_EQ(sized->configHash(), want->configHash())
                << name << suffix;
        }
    }
}

TEST(PolicyRegistry, UnknownNameIsAnAttributableError)
{
    GpuConfig cfg = GpuConfig::ptr(2, 4);
    const Status st = applyPolicy(cfg, "no-such-policy");
    ASSERT_FALSE(st.isOk());
    // The error names the registered policies so a CLI user can
    // self-serve.
    EXPECT_NE(st.toString().find("zorder"), std::string::npos);
    EXPECT_EQ(findPolicy("no-such-policy"), nullptr);
}
