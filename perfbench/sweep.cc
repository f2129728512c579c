/**
 * @file
 * sweep: a figure-style sweep through SweepRunner::runWithPolicy on two
 * workers with a shared SceneCache, repeated.
 *
 * Jobs: compute-intensive ChE and GDL plus memory-intensive CCS, each
 * under `zorder`, `libra` and `re-libra` and once with ideal memory
 * (the Fig. 6a method), plus a 4-point `resizeThreshold` group on HCR
 * that forks from a 2-frame warm prefix. Every job renders a 4-frame
 * window at 960x544, the configuration EXPERIMENTS.md's figure sweeps
 * use. The seed picks the first frame of every job. A request is one
 * job, and one sweep is one repetition; all jobs of a sweep are
 * submitted together and returned together, so each job's latency is
 * its sweep's wall time. Every sweep of a run must reproduce the first
 * sweep's per-job counter dumps and report bytes.
 */

#include "bench.hh"
#include "common/rng.hh"
#include "gpu/policy_registry.hh"
#include "sim/sweep.hh"
#include "spans.hh"
#include "trace/run_report.hh"
#include "workload/benchmarks.hh"

namespace perfbench
{

using namespace libra;

namespace
{

constexpr std::uint32_t kWidth = 960;
constexpr std::uint32_t kHeight = 544;
constexpr std::uint32_t kFrames = 4;
constexpr unsigned kWorkers = 2;
constexpr std::uint32_t kWarmPrefix = 2;
constexpr int kSetupRepeats = 10;

const char *const kTitles[] = {"ChE", "GDL", "CCS"};
const char *const kPolicies[] = {"zorder", "libra", "re-libra"};
constexpr const char *kThresholdTitle = "HCR";
constexpr double kThresholds[] = {0.001, 0.0025, 0.01, 0.05};

std::vector<SweepJob>
makeJobs(std::uint64_t seed)
{
    std::vector<SweepJob> jobs;
    const auto add = [&jobs](const char *title, const GpuConfig &cfg) {
        jobs.push_back(SweepJob{&findBenchmark(title), cfg, kFrames, 0});
    };
    for (const char *title : kTitles) {
        for (const char *policy : kPolicies)
            add(title, machineConfig(kWidth, kHeight, policy));
        GpuConfig ideal = machineConfig(kWidth, kHeight, "libra");
        ideal.idealMemory = true;
        add(title, ideal);
    }
    for (const double threshold : kThresholds) {
        GpuConfig cfg = machineConfig(kWidth, kHeight, "libra");
        cfg.sched.resizeThreshold = threshold;
        add(kThresholdTitle, cfg);
    }
    Rng rng(seed);
    const auto first_frame = static_cast<std::uint32_t>(rng.next() % 4);
    for (SweepJob &job : jobs)
        job.firstFrame = first_frame;
    return jobs;
}

std::string
jobKey(const SweepJob &job)
{
    return job.spec->abbrev + " " + policyNameFor(job.config)
        + (job.config.idealMemory ? " ideal-memory" : "")
        + " resize=" + std::to_string(job.config.sched.resizeThreshold);
}

} // namespace

void
runSweep(const Options &opt, Report &rep)
{
    const std::vector<SweepJob> jobs = makeJobs(opt.seed);

    // Set-up: the first fill of a fresh SceneCache. Every sweep gets a
    // fresh cache, so the set-up samples span the whole run.
    std::unique_ptr<SceneCache> scenes;
    const auto set_up = [&] {
        Span root("bench.setup");
        const Clock::time_point t0 = Clock::now();
        scenes = std::make_unique<SceneCache>();
        for (const SweepJob &job : jobs) {
            Span s("sim.SceneCache.get");
            scenes->get(*job.spec, kWidth, kHeight);
        }
        rep.setup(since(t0));
    };
    for (int i = 0; i < kSetupRepeats; ++i)
        set_up();

    SweepRunner runner(kWorkers);
    SweepPolicy policy;
    policy.checkpoint.warmPrefixFrames = kWarmPrefix;

    std::vector<double> sweep_s, cpu_s, report_ms;
    std::vector<std::uint64_t> golden;
    std::uint64_t golden_report = 0, forks = 0, report_bytes = 0;
    std::vector<RunResult> first;
    repeatWithin(opt.budget, [&] {
        set_up();
        Span root("bench.run");
        const double cpu0 = cpuSeconds();
        const Clock::time_point t0 = Clock::now();
        SweepOutcome outcome = [&] {
            Span s("sim.SweepRunner.runWithPolicy");
            return runner.runWithPolicy(jobs, policy, scenes.get());
        }();
        const double wall = since(t0);
        sweep_s.push_back(wall);
        cpu_s.push_back(cpuSeconds() - cpu0);
        rep.repetition(wall, std::vector<double>(jobs.size(), wall * 1e3));

        const bool first_sweep = sweep_s.size() == 1;
        if (first_sweep)
            golden.assign(outcome.jobs.size(), 0);
        std::vector<RunResult> results;
        for (std::size_t i = 0; i < outcome.jobs.size(); ++i) {
            const Result<RunResult> &r = outcome.jobs[i].result;
            if (!rep.op(r.isOk(), "sweep job " + std::to_string(i) + " ("
                                      + jobKey(jobs[i]) + "): "
                                      + (r.isOk() ? ""
                                                  : r.status().toString())))
                continue;
            const std::uint64_t hash = fnv1a(counterDump(*r));
            if (first_sweep)
                golden[i] = hash;
            else
                rep.op(hash == golden[i],
                       "sweep job " + std::to_string(i) + " ("
                           + jobKey(jobs[i])
                           + ") counter dump differs from the first sweep");
            results.push_back(*r);
        }
        if (first_sweep)
            forks = outcome.warmPrefixForks;
        else
            rep.op(outcome.warmPrefixForks == forks,
                   "sweep warm-prefix fork count changed");

        std::string report;
        const Clock::time_point r0 = Clock::now();
        {
            Span s("trace.sweepReportJson");
            report = sweepReportJson(results);
        }
        report_ms.push_back(since(r0) * 1e3);
        const std::uint64_t report_hash = fnv1a(report);
        if (first_sweep) {
            golden_report = report_hash;
            report_bytes = report.size();
            first = std::move(results);
        } else {
            rep.op(report_hash == golden_report,
                   "sweep report bytes differ from the first sweep");
        }
        return true;
    });
    rep.note("sweep_s", percentile(sweep_s, 50), "s");
    rep.note("sweeps", static_cast<double>(sweep_s.size()), "count");
    rep.set("sweep.cpu_s", percentile(cpu_s, 50));
    rep.set("sweep.busy_ratio", percentile(cpu_s, 50)
                                    / (kWorkers * percentile(sweep_s, 50)));
    rep.exact("sweep.scene_builds", scenes->builds());
    rep.exact("sweep.warm_prefix_forks", forks);
    rep.set("trace.report_ms", percentile(report_ms, 50));
    rep.exact("trace.report_bytes", report_bytes);
    std::string dumps;
    for (const std::uint64_t hash : golden)
        dumps += std::to_string(hash) + "\n";
    rep.digest("sweep.counter_dumps", fnv1a(dumps));
    rep.digest("sweep.report", golden_report);

    std::vector<const RunResult *> runs;
    for (const RunResult &r : first)
        runs.push_back(&r);
    reportModelCounts(rep, runs);
}

} // namespace perfbench
