/**
 * @file
 * Tests for the seeded configuration fuzzer: every generated config is
 * validate()-clean, generation is deterministic from the seed, and a
 * fixed-seed batch simulates cleanly through the SweepRunner with every
 * invariant armed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include <set>
#include <string>

#include "check/config_fuzzer.hh"
#include "common/rng.hh"
#include "gpu/policy_registry.hh"
#include "sim/sweep.hh"
#include "workload/benchmarks.hh"

using namespace libra;

namespace
{

constexpr std::uint32_t W = 256;
constexpr std::uint32_t H = 128;

} // namespace

TEST(ConfigFuzzer, EveryConfigValidates)
{
    // fuzzGpuConfig() asserts validity internally; sweeping many seeds
    // here turns any hole in its construction rules into a red test
    // instead of a one-in-N fuzz-job crash.
    Rng rng(0xf00du);
    for (int i = 0; i < 200; ++i) {
        const GpuConfig cfg = fuzzGpuConfig(rng, W, H);
        EXPECT_TRUE(cfg.validate().isOk());
        EXPECT_TRUE(cfg.checkInvariants);
    }
}

TEST(ConfigFuzzer, DeterministicFromSeed)
{
    Rng a(42), b(42), c(43);
    const GpuConfig first = fuzzGpuConfig(a, W, H);
    const GpuConfig second = fuzzGpuConfig(b, W, H);
    EXPECT_TRUE(first.validate().isOk());

    // Same seed, same config; a different seed soon diverges.
    EXPECT_EQ(first.sched.policy, second.sched.policy);
    EXPECT_EQ(first.rasterUnits, second.rasterUnits);
    EXPECT_EQ(first.l2.sizeBytes, second.l2.sizeBytes);
    bool diverged = false;
    for (int i = 0; i < 8 && !diverged; ++i) {
        const GpuConfig other = fuzzGpuConfig(c, W, H);
        diverged = other.rasterUnits != first.rasterUnits ||
                   other.l2.sizeBytes != first.l2.sizeBytes ||
                   other.sched.policy != first.sched.policy;
    }
    EXPECT_TRUE(diverged);
}

TEST(ConfigFuzzer, EveryRegisteredPolicyIsReachable)
{
    // The fuzzer draws mechanism presets uniformly from the policy
    // registry; a 200-config run must hit every registered entry, so
    // the conservation laws fuzz every policy including Rendering
    // Elimination. policyNameFor() maps the drawn (sched, RE) pair
    // back to its registry name — "?" would mean the fuzzer produced
    // an unregistered combination.
    Rng rng(0xca11ab1eu);
    std::set<std::string> seen;
    for (int i = 0; i < 200; ++i) {
        const GpuConfig cfg = fuzzGpuConfig(rng, W, H);
        const std::string name = policyNameFor(cfg);
        EXPECT_NE(name, "?");
        seen.insert(name);
    }
    for (const PolicyInfo &p : policyRegistry())
        EXPECT_TRUE(seen.count(p.name))
            << p.name << " never drawn in 200 configs";
}

TEST(ConfigFuzzer, FixedSeedBatchSimulatesCleanly)
{
    // The CI configuration: a small fixed-seed batch through the sweep
    // engine, two frames each, conservation laws armed. Any accounting
    // regression anywhere in the model shows up as a failed job.
    const BenchmarkSpec &spec = findBenchmark("CCS");
    Rng rng(2024);
    std::vector<SweepJob> jobs;
    for (int i = 0; i < 6; ++i)
        jobs.push_back({&spec, fuzzGpuConfig(rng, W, H), 2, 0});

    SceneCache cache;
    SweepRunner runner;
    const SweepOutcome out =
        runner.runWithPolicy(std::move(jobs), SweepPolicy{}, &cache);
    ASSERT_EQ(out.jobs.size(), 6u);
    for (std::size_t i = 0; i < out.jobs.size(); ++i) {
        const Result<RunResult> &result = out.jobs[i].result;
        ASSERT_TRUE(result.isOk())
            << "job " << i << ": " << result.status().toString();
        EXPECT_EQ(result->frames.size(), 2u);
    }
}
