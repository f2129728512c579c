/**
 * @file
 * Golden determinism tests: the same scene + config must produce
 * byte-identical counter dumps, RunReports and chrome traces no matter
 * how often the simulation is repeated or how many sweep workers run
 * it. This is what makes the observability artifacts diffable across
 * machines and CI runs.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gpu/runner.hh"
#include "sim/sweep.hh"
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

} // namespace

TEST(Determinism, RepeatedRunsAreByteIdentical)
{
    const GpuConfig cfg = sized(GpuConfig::ptr(2, 4));
    const Scene scene(findBenchmark("CCS"), W, H);

    Result<RunResult> first = runBenchmark(scene, cfg, 2);
    Result<RunResult> second = runBenchmark(scene, cfg, 2);
    ASSERT_TRUE(first.isOk()) << first.status().toString();
    ASSERT_TRUE(second.isOk()) << second.status().toString();

    // The full cumulative counter dump, entry for entry.
    EXPECT_EQ(first->counters, second->counters);
    // And the serialized report down to the last byte.
    EXPECT_EQ(runReportJson(*first), runReportJson(*second));
}

TEST(Determinism, TraceExportIsByteIdenticalAcrossRuns)
{
    GpuConfig cfg = sized(GpuConfig::ptr(2, 4));
    cfg.traceEvents = true;
    const Scene scene(findBenchmark("CCS"), W, H);

    Result<RunResult> first = runBenchmark(scene, cfg, 2);
    Result<RunResult> second = runBenchmark(scene, cfg, 2);
    ASSERT_TRUE(first.isOk());
    ASSERT_TRUE(second.isOk());
    ASSERT_NE(first->trace, nullptr);
    ASSERT_NE(second->trace, nullptr);
    EXPECT_EQ(first->trace->chromeTraceJson(),
              second->trace->chromeTraceJson());
}

TEST(Determinism, SweepWorkerCountNeverChangesResults)
{
    // The worker count is a wall-clock knob only: one worker and four
    // workers must produce byte-identical artifacts for every job.
    const BenchmarkSpec &spec = findBenchmark("CCS");
    std::vector<SweepJob> jobs;
    for (const GpuConfig &base :
         {GpuConfig::baseline(8), GpuConfig::ptr(2, 4),
          GpuConfig::libra(2, 4), GpuConfig::ptr(4, 2)}) {
        GpuConfig cfg = sized(base);
        cfg.traceEvents = true;
        SweepJob job;
        job.spec = &spec;
        job.config = cfg;
        job.frames = 1;
        jobs.push_back(job);
    }

    SceneCache cache;
    const SweepOutcome serial_out =
        SweepRunner(1).runWithPolicy(jobs, SweepPolicy{}, &cache);
    const SweepOutcome parallel_out =
        SweepRunner(4).runWithPolicy(jobs, SweepPolicy{}, &cache);
    ASSERT_EQ(serial_out.jobs.size(), jobs.size());
    ASSERT_EQ(parallel_out.jobs.size(), jobs.size());

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Result<RunResult> &serial = serial_out.jobs[i].result;
        const Result<RunResult> &parallel = parallel_out.jobs[i].result;
        ASSERT_TRUE(serial.isOk()) << serial.status().toString();
        ASSERT_TRUE(parallel.isOk()) << parallel.status().toString();
        EXPECT_EQ(serial->counters, parallel->counters) << i;
        EXPECT_EQ(runReportJson(*serial), runReportJson(*parallel)) << i;
        ASSERT_NE(serial->trace, nullptr) << i;
        ASSERT_NE(parallel->trace, nullptr) << i;
        EXPECT_EQ(serial->trace->chromeTraceJson(),
                  parallel->trace->chromeTraceJson())
            << i;
    }

    // The sweep-set report is deterministic as a whole, too.
    std::vector<RunResult> a, b;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        a.push_back(*serial_out.jobs[i].result);
        b.push_back(*parallel_out.jobs[i].result);
    }
    EXPECT_EQ(sweepReportJson(a), sweepReportJson(b));
}
