/**
 * @file
 * Perf-regression smoke test: a fixed, pinned workload whose numbers
 * are comparable across commits.
 *
 * Four measurements:
 *   - event-loop hot path: one Gpu instance renders a pinned scene and
 *     we report simulator events per wall-clock second (no trace sink
 *     attached — this is the number regressions are judged against);
 *   - the same workload with a TraceSink attached, to quantify the
 *     cost of event recording (events_per_sec_traced);
 *   - sweep throughput: the same jobs pushed through SweepRunner, to
 *     catch regressions in the parallel harness itself (host_cpus is
 *     recorded next to it: the sweep figure scales with the host);
 *   - warm-prefix forking: a fig19-style threshold sweep (four LIBRA
 *     configs differing only in sched.resizeThreshold) run cold and
 *     then with --warm-prefix-style forking (CheckpointPolicy
 *     warmPrefixFrames = 2). The counter dumps must match exactly —
 *     the fork-restore byte-identity contract — and the wall-time
 *     reduction is recorded (warm_prefix_time_reduction_pct).
 *
 * Methodology: every measurement runs --warmup discarded iterations and
 * --repeat timed ones and reports the median plus the MAD (median
 * absolute deviation). Single-shot wall times on a shared machine are
 * noise — an unlucky scheduling hiccup used to swing the recorded
 * number by 2x; the median of pinned repeats is stable to a few
 * percent and the MAD quantifies how trustworthy this particular run
 * was.
 *
 * Regression gate: --baseline FILE compares this run's medians against
 * a previously written results file (e.g. the committed
 * BENCH_baseline.json) and exits non-zero when the wall-time geomean
 * regresses by more than --tolerance percent (default 10). A fixed
 * arithmetic calibration loop is timed in both runs and its ratio
 * rescales the baseline, so a comparison on a faster/slower machine
 * than the one that wrote the baseline still measures the *simulator*,
 * not the host.
 *
 * Results land in BENCH_sweep.json (override with --out FILE) so CI can
 * archive them per commit and trend them; the same file format is what
 * --baseline consumes. --report-out/--trace-out write the traced run's
 * RunReport and chrome-trace. The workload is deliberately NOT
 * configurable beyond --frames/--jobs: changing it breaks
 * comparability across history.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hh"
#include "common/log.hh"
#include "gpu/gpu.hh"
#include "gpu/gpu_config.hh"
#include "gpu/runner.hh"
#include "sim/sweep.hh"
#include "trace/json.hh"
#include "trace/run_report.hh"
#include "workload/benchmarks.hh"
#include "workload/scene.hh"

using namespace libra;

namespace
{

// The pinned workload. Do not change casually: historical
// BENCH_sweep.json files stop being comparable.
constexpr const char *kBenchmark = "CCS";
constexpr std::uint32_t kWidth = 960;
constexpr std::uint32_t kHeight = 544;

double
seconds(std::chrono::steady_clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** Median and median-absolute-deviation of timed repeats. */
struct Stats
{
    double median = 0.0;
    double mad = 0.0;
};

double
medianOf(std::vector<double> v)
{
    libra_assert(!v.empty(), "median of nothing");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Stats
summarize(const std::vector<double> &samples)
{
    Stats s;
    s.median = medianOf(samples);
    std::vector<double> dev;
    dev.reserve(samples.size());
    for (const double x : samples)
        dev.push_back(std::abs(x - s.median));
    s.mad = medianOf(std::move(dev));
    return s;
}

/** Run @p body (returning its wall seconds) warmup+repeat times and
 *  summarize the timed repeats. */
template <typename Fn>
Stats
measure(unsigned warmup, unsigned repeat, Fn &&body)
{
    for (unsigned i = 0; i < warmup; ++i)
        body();
    std::vector<double> samples;
    samples.reserve(repeat);
    for (unsigned i = 0; i < repeat; ++i)
        samples.push_back(body());
    return summarize(samples);
}

/**
 * Host-speed calibration: a fixed integer workload timed the same way
 * the simulator runs are. The ratio of two runs' calibration times
 * rescales baseline wall times recorded on a different (or
 * differently-loaded) machine. Median-of-5 keeps it stable.
 */
double
calibrate()
{
    std::vector<double> samples;
    volatile std::uint64_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        std::uint64_t h = 0x9E3779B97F4A7C15ull;
        for (std::uint32_t i = 0; i < 20'000'000; ++i) {
            h ^= h >> 33;
            h *= 0xFF51AFD7ED558CCDull;
            h += i;
        }
        sink = sink + h;
        samples.push_back(
            seconds(std::chrono::steady_clock::now() - t0));
    }
    return medianOf(std::move(samples));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read ", path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

double
jsonNumber(const JsonValue &root, const std::string &key)
{
    const JsonValue *v = root.find(key);
    if (v == nullptr || !v->isNumber())
        fatal("baseline file is missing numeric field \"", key, "\"");
    return v->number;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args(argc, argv,
                       {"frames", "jobs", "out", "report-out",
                        "trace-out", "warmup", "repeat", "baseline",
                        "tolerance"});
    const auto frames =
        static_cast<std::uint32_t>(args.getUint("frames", 4));
    const auto jobs = static_cast<unsigned>(args.getUint("jobs", 2));
    const auto warmup =
        static_cast<unsigned>(args.getUint("warmup", 1));
    const auto repeat =
        static_cast<unsigned>(args.getUint("repeat", 3));
    const double tolerance = args.getDouble("tolerance", 10.0);
    const std::string out = args.get("out", "BENCH_sweep.json");
    const std::string baseline_path = args.get("baseline", "");
    const std::string report_out = args.get("report-out", "");
    const std::string trace_out = args.get("trace-out", "");
    if (frames < 1)
        fatal("--frames must be at least 1");
    if (repeat < 1)
        fatal("--repeat must be at least 1");

    const BenchmarkSpec &spec = findBenchmark(kBenchmark);
    const Scene scene(spec, kWidth, kHeight);

    const double calib_s = calibrate();

    // --- Event-loop hot path: one simulation, events/sec. ------------
    GpuConfig cfg = GpuConfig::libra(2, 4);
    cfg.screenWidth = kWidth;
    cfg.screenHeight = kHeight;

    std::uint64_t events = 0;
    const Stats sim = measure(warmup, repeat, [&] {
        Gpu gpu(cfg);
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint32_t f = 0; f < frames; ++f)
            gpu.renderFrame(scene.frame(f), scene.textures());
        const double s =
            seconds(std::chrono::steady_clock::now() - t0);
        const std::uint64_t e = gpu.eventQueue().eventsExecuted();
        libra_assert(events == 0 || events == e,
                     "non-deterministic event count across repeats");
        events = e;
        return s;
    });
    const double events_per_sec = sim.median > 0.0
        ? static_cast<double>(events) / sim.median
        : 0.0;

    // --- Same workload, trace sink attached: recording overhead. -----
    GpuConfig cfg_traced = cfg;
    cfg_traced.traceEvents = true;
    RunResult traced;
    traced.benchmark = kBenchmark;
    traced.config = cfg_traced;
    std::uint64_t events_traced = 0;
    const Stats traced_stats = measure(warmup, repeat, [&] {
        traced.trace = std::make_shared<TraceSink>();
        traced.frames.clear();
        Gpu gpu_traced(cfg_traced);
        gpu_traced.setTraceSink(traced.trace.get());
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint32_t f = 0; f < frames; ++f) {
            traced.frames.push_back(
                gpu_traced.renderFrame(scene.frame(f),
                                       scene.textures()));
        }
        const double s =
            seconds(std::chrono::steady_clock::now() - t0);
        events_traced = gpu_traced.eventQueue().eventsExecuted();
        traced.counters = gpu_traced.stats().values();
        return s;
    });
    const double events_per_sec_traced = traced_stats.median > 0.0
        ? static_cast<double>(events_traced) / traced_stats.median
        : 0.0;

    // --- Sweep throughput: the same workload through SweepRunner. ----
    const auto make_jobs = [&] {
        std::vector<SweepJob> sweep_jobs;
        for (const std::uint32_t cores : {8u, 8u}) {
            GpuConfig c = GpuConfig::baseline(cores);
            c.screenWidth = kWidth;
            c.screenHeight = kHeight;
            sweep_jobs.push_back(SweepJob{&spec, c, frames, 0});
        }
        GpuConfig c = cfg;
        sweep_jobs.push_back(SweepJob{&spec, c, frames, 0});
        c.sched.policy = SchedulerPolicy::Scanline;
        sweep_jobs.push_back(SweepJob{&spec, c, frames, 0});
        return sweep_jobs;
    };
    const std::size_t n_jobs = make_jobs().size();

    SweepRunner runner(jobs);
    SceneCache scenes;
    const Stats sweep = measure(warmup, repeat, [&] {
        const auto t0 = std::chrono::steady_clock::now();
        const SweepOutcome outcome =
            runner.runWithPolicy(make_jobs(), SweepPolicy{}, &scenes);
        const double s =
            seconds(std::chrono::steady_clock::now() - t0);
        for (std::size_t i = 0; i < outcome.jobs.size(); ++i) {
            if (!outcome.jobs[i].result.isOk())
                fatal("sweep job ", i, ": ",
                      outcome.jobs[i].result.status().toString());
        }
        return s;
    });

    const std::uint32_t host_cpus = std::thread::hardware_concurrency();

    // --- Warm-prefix forking: fig19-style threshold sweep. -----------
    // Four LIBRA configs differing only in the supertile resize
    // threshold share a warmPrefixHash, so with warmPrefixFrames = 2
    // the sweep renders the two opening frames once and forks the rest.
    const auto make_threshold_jobs = [&] {
        std::vector<SweepJob> tj;
        for (const double thr : {0.0, 0.0025, 0.01, 0.05}) {
            GpuConfig c = cfg;
            c.sched.resizeThreshold = thr;
            tj.push_back(SweepJob{&spec, c, frames, 0});
        }
        return tj;
    };
    std::uint64_t warm_prefix_forks = 0;
    std::vector<std::map<std::string, std::uint64_t>> cold_dumps;
    const auto run_threshold_sweep = [&](std::uint32_t warm_frames) {
        SweepPolicy policy;
        policy.checkpoint.warmPrefixFrames = warm_frames;
        const auto t0 = std::chrono::steady_clock::now();
        SweepOutcome sweep_out =
            runner.runWithPolicy(make_threshold_jobs(), policy, &scenes);
        const double s =
            seconds(std::chrono::steady_clock::now() - t0);
        std::vector<std::map<std::string, std::uint64_t>> dumps;
        for (std::size_t i = 0; i < sweep_out.jobs.size(); ++i) {
            if (!sweep_out.jobs[i].result.isOk())
                fatal("threshold sweep job ", i, ": ",
                      sweep_out.jobs[i].result.status().toString());
            dumps.push_back(
                std::move(sweep_out.jobs[i].result->counters));
        }
        // Fork-restore byte-identity contract: the forked runs must be
        // indistinguishable from the cold ones, counter for counter.
        if (cold_dumps.empty())
            cold_dumps = std::move(dumps);
        else
            libra_assert(dumps == cold_dumps,
                         "warm-prefix fork diverged from cold run");
        if (warm_frames != 0)
            warm_prefix_forks = sweep_out.warmPrefixForks;
        return s;
    };
    const Stats sweep_cold = measure(warmup, repeat,
                                     [&] { return run_threshold_sweep(0); });
    const Stats sweep_warm = measure(warmup, repeat,
                                     [&] { return run_threshold_sweep(2); });
    const double warm_prefix_reduction_pct = sweep_cold.median > 0.0
        ? 100.0 * (1.0 - sweep_warm.median / sweep_cold.median)
        : 0.0;

    // --- Report. -----------------------------------------------------
    std::printf("perf_smoke: %s %ux%u, %u frame(s), "
                "%u warmup + %u repeat(s)\n",
                kBenchmark, kWidth, kHeight, frames, warmup, repeat);
    std::printf("  calibration: %.3f s\n", calib_s);
    std::printf("  event loop : %llu events, median %.3f s "
                "(MAD %.3f)  (%.3g events/s)\n",
                static_cast<unsigned long long>(events), sim.median,
                sim.mad, events_per_sec);
    std::printf("  traced     : %llu events, median %.3f s "
                "(MAD %.3f)  (%.3g events/s, %zu trace events)\n",
                static_cast<unsigned long long>(events_traced),
                traced_stats.median, traced_stats.mad,
                events_per_sec_traced, traced.trace->eventCount());
    std::printf("  sweep      : %zu jobs, %u worker(s), median %.3f s "
                "(MAD %.3f)  (%u host cpus)\n",
                n_jobs, runner.workers(), sweep.median, sweep.mad,
                host_cpus);
    std::printf("  warm prefix: cold %.3f s, warm %.3f s (MAD %.3f) — "
                "%llu fork(s), %.1f%% faster\n",
                sweep_cold.median, sweep_warm.median, sweep_warm.mad,
                static_cast<unsigned long long>(warm_prefix_forks),
                warm_prefix_reduction_pct);

    if (!report_out.empty()) {
        if (Status st =
                writeTextFile(report_out, runReportJson(traced));
            !st.isOk()) {
            fatal("--report-out: ", st.toString());
        }
        std::printf("wrote %s\n", report_out.c_str());
    }
    if (!trace_out.empty()) {
        if (Status st = traced.trace->writeChromeTrace(trace_out);
            !st.isOk()) {
            fatal("--trace-out: ", st.toString());
        }
        std::printf("wrote %s\n", trace_out.c_str());
    }

    std::FILE *fp = std::fopen(out.c_str(), "w");
    if (fp == nullptr)
        fatal("cannot write ", out);
    std::fprintf(fp,
                 "{\n"
                 "  \"benchmark\": \"%s\",\n"
                 "  \"width\": %u,\n"
                 "  \"height\": %u,\n"
                 "  \"frames\": %u,\n"
                 "  \"warmup\": %u,\n"
                 "  \"repeat\": %u,\n"
                 "  \"calibration_s\": %.6f,\n"
                 "  \"events\": %llu,\n"
                 "  \"events_per_sec\": %.1f,\n"
                 "  \"wall_time_s\": %.6f,\n"
                 "  \"wall_time_mad_s\": %.6f,\n"
                 "  \"events_per_sec_traced\": %.1f,\n"
                 "  \"trace_events\": %zu,\n"
                 "  \"wall_time_traced_s\": %.6f,\n"
                 "  \"wall_time_traced_mad_s\": %.6f,\n"
                 "  \"sweep_jobs\": %zu,\n"
                 "  \"sweep_workers\": %u,\n"
                 "  \"sweep_wall_time_s\": %.6f,\n"
                 "  \"sweep_wall_time_mad_s\": %.6f,\n"
                 "  \"host_cpus\": %u,\n"
                 "  \"warm_prefix_frames\": 2,\n"
                 "  \"warm_prefix_forks\": %llu,\n"
                 "  \"warm_prefix_cold_wall_time_s\": %.6f,\n"
                 "  \"warm_prefix_warm_wall_time_s\": %.6f,\n"
                 "  \"warm_prefix_warm_wall_time_mad_s\": %.6f,\n"
                 "  \"warm_prefix_time_reduction_pct\": %.1f\n"
                 "}\n",
                 kBenchmark, kWidth, kHeight, frames, warmup, repeat,
                 calib_s, static_cast<unsigned long long>(events),
                 events_per_sec, sim.median, sim.mad,
                 events_per_sec_traced, traced.trace->eventCount(),
                 traced_stats.median, traced_stats.mad, n_jobs,
                 runner.workers(), sweep.median, sweep.mad, host_cpus,
                 static_cast<unsigned long long>(warm_prefix_forks),
                 sweep_cold.median, sweep_warm.median, sweep_warm.mad,
                 warm_prefix_reduction_pct);
    std::fclose(fp);
    std::printf("wrote %s\n", out.c_str());

    // --- Baseline gate. ----------------------------------------------
    if (baseline_path.empty())
        return 0;

    Result<JsonValue> parsed = parseJson(readFile(baseline_path));
    if (!parsed.isOk())
        fatal("--baseline ", baseline_path, ": ",
              parsed.status().toString());
    const JsonValue &base = *parsed;

    // The baseline must describe the same pinned workload, or the
    // comparison is meaningless.
    const JsonValue *bench_name = base.find("benchmark");
    if (bench_name == nullptr || !bench_name->isString()
        || bench_name->str != kBenchmark
        || jsonNumber(base, "width") != kWidth
        || jsonNumber(base, "height") != kHeight
        || jsonNumber(base, "frames") != frames) {
        fatal("--baseline ", baseline_path,
              " was recorded for a different workload");
    }

    const auto base_events =
        static_cast<std::uint64_t>(jsonNumber(base, "events"));
    if (base_events != events) {
        std::printf("baseline: NOTE event count changed %llu -> %llu "
                    "(semantic change; wall-time comparison still "
                    "applies, diff_check guards equivalence)\n",
                    static_cast<unsigned long long>(base_events),
                    static_cast<unsigned long long>(events));
    }

    // Rescale the baseline by the host-speed ratio so a slower/faster
    // machine (or runner) does not masquerade as a simulator change.
    const double base_calib = jsonNumber(base, "calibration_s");
    const double host_scale =
        base_calib > 0.0 ? calib_s / base_calib : 1.0;

    struct Metric
    {
        const char *name;
        const char *key;
        double now;
    };
    const Metric metrics[] = {
        {"event loop", "wall_time_s", sim.median},
        {"traced", "wall_time_traced_s", traced_stats.median},
        {"sweep", "sweep_wall_time_s", sweep.median},
    };

    std::printf("baseline: comparing against %s "
                "(host scale %.3fx, tolerance %.1f%%)\n",
                baseline_path.c_str(), host_scale, tolerance);
    double log_sum = 0.0;
    for (const Metric &m : metrics) {
        const double base_median =
            jsonNumber(base, m.key) * host_scale;
        const double ratio =
            base_median > 0.0 ? m.now / base_median : 1.0;
        log_sum += std::log(ratio);
        std::printf("  %-11s: %.3f s vs %.3f s  (%.2fx)\n", m.name,
                    m.now, base_median, ratio);
    }
    const double geomean =
        std::exp(log_sum / std::size(metrics));
    const bool regressed = geomean > 1.0 + tolerance / 100.0;
    std::printf("baseline: wall-time geomean ratio %.3fx — %s\n",
                geomean, regressed ? "REGRESSION" : "ok");
    return regressed ? 1 : 0;
}
