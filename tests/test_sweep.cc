/**
 * @file
 * SweepRunner / SceneCache under a default SweepPolicy: determinism
 * across worker counts, scene sharing, and per-job error isolation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gpu/gpu_config.hh"
#include "gpu/runner.hh"
#include "sim/sweep.hh"
#include "workload/benchmarks.hh"

using namespace libra;

namespace
{

constexpr std::uint32_t kWidth = 256;
constexpr std::uint32_t kHeight = 128;

GpuConfig
smallConfig(GpuConfig cfg)
{
    cfg.screenWidth = kWidth;
    cfg.screenHeight = kHeight;
    return cfg;
}

std::vector<SweepJob>
mixedJobs(const BenchmarkSpec &ccs, const BenchmarkSpec &gdl)
{
    std::vector<SweepJob> jobs;
    jobs.push_back({&ccs, smallConfig(GpuConfig::baseline(8)), 2, 0});
    jobs.push_back({&ccs, smallConfig(GpuConfig::ptr(2, 4)), 2, 0});
    jobs.push_back({&ccs, smallConfig(GpuConfig::libra(2, 4)), 2, 0});
    jobs.push_back({&gdl, smallConfig(GpuConfig::baseline(8)), 2, 0});
    jobs.push_back({&gdl, smallConfig(GpuConfig::libra(2, 4)), 2, 0});
    return jobs;
}

/** Every observable counter of one frame, for bit-exact comparison. */
void
expectFramesIdentical(const FrameStats &a, const FrameStats &b)
{
    EXPECT_EQ(a.frameIndex, b.frameIndex);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.geomCycles, b.geomCycles);
    EXPECT_EQ(a.rasterCycles, b.rasterCycles);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.dramWrites, b.dramWrites);
    EXPECT_EQ(a.dramActivates, b.dramActivates);
    EXPECT_EQ(a.avgDramReadLatency, b.avgDramReadLatency);
    EXPECT_EQ(a.textureHitRatio, b.textureHitRatio);
    EXPECT_EQ(a.avgTextureLatency, b.avgTextureLatency);
    EXPECT_EQ(a.textureRequests, b.textureRequests);
    EXPECT_EQ(a.textureMisses, b.textureMisses);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.fragments, b.fragments);
    EXPECT_EQ(a.warps, b.warps);
    EXPECT_EQ(a.quads, b.quads);
    EXPECT_EQ(a.temperatureOrder, b.temperatureOrder);
    EXPECT_EQ(a.supertileSize, b.supertileSize);
    EXPECT_EQ(a.tileDram, b.tileDram);
    EXPECT_EQ(a.tileInstr, b.tileInstr);
}

} // namespace

TEST(SweepRunner, ResultsIdenticalAcrossWorkerCounts)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    const BenchmarkSpec &gdl = findBenchmark("GDL");

    SweepRunner serial(1);
    SweepRunner pool(8);
    SceneCache cache_serial, cache_pool;
    SweepOutcome a = serial.runWithPolicy(mixedJobs(ccs, gdl),
                                          SweepPolicy{}, &cache_serial);
    SweepOutcome b = pool.runWithPolicy(mixedJobs(ccs, gdl),
                                        SweepPolicy{}, &cache_pool);

    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        const Result<RunResult> &ra = a.jobs[i].result;
        const Result<RunResult> &rb = b.jobs[i].result;
        ASSERT_TRUE(ra.isOk()) << ra.status().toString();
        ASSERT_TRUE(rb.isOk()) << rb.status().toString();
        EXPECT_EQ(ra->benchmark, rb->benchmark);
        ASSERT_EQ(ra->frames.size(), rb->frames.size());
        for (std::size_t f = 0; f < ra->frames.size(); ++f)
            expectFramesIdentical(ra->frames[f], rb->frames[f]);
    }
}

TEST(SweepRunner, ResultsComeBackInSubmissionOrder)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    const BenchmarkSpec &gdl = findBenchmark("GDL");

    SweepRunner pool(4);
    SweepOutcome out =
        pool.runWithPolicy(mixedJobs(ccs, gdl), SweepPolicy{}, nullptr);
    ASSERT_EQ(out.jobs.size(), 5u);
    EXPECT_EQ(out.jobs[0].result->benchmark, "CCS");
    EXPECT_EQ(out.jobs[2].result->benchmark, "CCS");
    EXPECT_EQ(out.jobs[3].result->benchmark, "GDL");
    EXPECT_EQ(out.jobs[4].result->benchmark, "GDL");
}

TEST(SweepRunner, WorkerCountDefaultsAndOverrides)
{
    EXPECT_GE(SweepRunner(0).workers(), 1u);
    EXPECT_EQ(SweepRunner(1).workers(), 1u);
    EXPECT_EQ(SweepRunner(6).workers(), 6u);
}

TEST(SceneCache, OneBuildPerBenchmarkUnderConcurrency)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    const BenchmarkSpec &gdl = findBenchmark("GDL");

    // 5 jobs over 2 distinct (benchmark, resolution) keys, run on 8
    // workers: the cache must build each scene exactly once however
    // the workers race.
    SweepRunner pool(8);
    SceneCache cache;
    SweepOutcome out =
        pool.runWithPolicy(mixedJobs(ccs, gdl), SweepPolicy{}, &cache);
    for (const JobOutcome &o : out.jobs)
        ASSERT_TRUE(o.result.isOk()) << o.result.status().toString();
    EXPECT_EQ(cache.builds(), 2u);

    // A second sweep over the same keys reuses the cached scenes.
    SweepOutcome again =
        pool.runWithPolicy(mixedJobs(ccs, gdl), SweepPolicy{}, &cache);
    EXPECT_EQ(cache.builds(), 2u);
}

TEST(SceneCache, DistinctResolutionsAreDistinctScenes)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");
    SceneCache cache;
    auto a = cache.get(ccs, 256, 128);
    auto b = cache.get(ccs, 256, 128);
    auto c = cache.get(ccs, 128, 64);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(cache.builds(), 2u);
}

TEST(SweepRunner, FailedJobDoesNotKillTheSweep)
{
    const BenchmarkSpec &ccs = findBenchmark("CCS");

    std::vector<SweepJob> jobs;
    jobs.push_back({&ccs, smallConfig(GpuConfig::baseline(8)), 2, 0});
    // Invalid: zero raster units fails config validation.
    GpuConfig bad = smallConfig(GpuConfig::baseline(8));
    bad.rasterUnits = 0;
    jobs.push_back({&ccs, bad, 2, 0});
    jobs.push_back({&ccs, smallConfig(GpuConfig::libra(2, 4)), 2, 0});

    SweepRunner pool(2);
    SweepOutcome out = pool.runWithPolicy(std::move(jobs), SweepPolicy{});
    ASSERT_EQ(out.jobs.size(), 3u);
    EXPECT_TRUE(out.jobs[0].result.isOk());
    EXPECT_FALSE(out.jobs[1].result.isOk());
    EXPECT_TRUE(out.jobs[2].result.isOk());
}

TEST(SweepRunner, NullSpecIsAnErrorNotACrash)
{
    std::vector<SweepJob> jobs;
    jobs.push_back({nullptr, GpuConfig::baseline(8), 2, 0});
    SweepRunner pool(1);
    SweepOutcome out = pool.runWithPolicy(std::move(jobs), SweepPolicy{});
    ASSERT_EQ(out.jobs.size(), 1u);
    EXPECT_FALSE(out.jobs[0].result.isOk());
}

TEST(SweepRunner, EmptyJobListIsFine)
{
    SweepRunner pool(4);
    EXPECT_TRUE(pool.runWithPolicy({}, SweepPolicy{}).jobs.empty());
}
