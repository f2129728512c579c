/**
 * @file
 * Shared pieces of the libra-sim benchmark: run options, the per-run
 * Report, and the helpers every workload uses to time calls, check
 * outputs and turn simulation results into the exact model counts.
 *
 * The program prints raw samples, exact counts and per-layer values
 * only. run.py turns the samples into the end-to-end metrics and takes
 * every metric's unit from BENCHMARK.json.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gpu/gpu_config.hh"
#include "gpu/runner.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double since(Clock::time_point t0);

/** Process CPU time (user + system, every thread) in seconds. */
double cpuSeconds();

/** Peak resident set size of the process in MiB. */
double peakRssMb();

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double budget = 10.0; //!< seconds the measured loop of a pass runs
    bool trace = false;
    std::string workDir; //!< per-run work directory (farm files)
};

/**
 * What one pass of a workload measured. Per-layer metric names must
 * appear in BENCHMARK.json (run.py checks); exact counts additionally
 * go to the exact block, which a speed-only change must leave
 * byte-identical.
 */
class Report
{
  public:
    /** A per-layer metric. */
    void set(const std::string &name, double value);

    /** An exact count of the model or of the workload's inputs. */
    void exact(const std::string &name, std::uint64_t value);
    void exact(const std::string &name, double value);

    /**
     * A digest of the workload's outputs. It goes to the exact block
     * only, so every process of a run, and every run of one seed, must
     * produce the same outputs.
     */
    void digest(const std::string &name, std::uint64_t value);

    /** One set-up of the workload took @p seconds. */
    void setup(double seconds) { setupSeconds.push_back(seconds); }

    /**
     * One repetition of the workload's unit of work: @p request_ms
     * holds every request's latency, and @p wall_s is the wall time in
     * which those requests were served.
     */
    void repetition(double wall_s, const std::vector<double> &request_ms);

    /** A human-readable figure outside BENCHMARK.json. */
    void note(const std::string &name, double value,
              const std::string &unit);

    /**
     * Count one operation (a simulation, job, request or output
     * check). A failed one is counted and its key printed to stderr.
     * Returns @p ok.
     */
    bool op(bool ok, const std::string &key);

    /** Count @p n operations that succeeded (counted elsewhere). */
    void passed(std::uint64_t n) { nAttempted += n; }

    std::uint64_t failed() const { return nFailed; }

    /**
     * To stdout: "metric <name> <value>" per per-layer metric, notes,
     * "setup <s>..." and "repetition <wall_s> <ms>..." samples, the
     * process's "peak_rss_mb", the exact block ("exact <name>
     * <value>"), and last "operations <attempted> <failed>".
     */
    void print() const;

  private:
    std::map<std::string, double> values;
    std::map<std::string, std::string> exactText;
    std::map<std::string, std::string> notes;
    std::vector<double> setupSeconds;
    std::vector<std::string> repetitions;
    std::uint64_t nAttempted = 0;
    std::uint64_t nFailed = 0;
};

/**
 * Run @p unit (returning false to stop early) at least once, and again
 * while one more run, as long as the last one, would still end within
 * @p budget seconds. Returns how many runs completed.
 */
template <class Unit>
int
repeatWithin(double budget, Unit &&unit)
{
    const Clock::time_point deadline = Clock::now()
        + std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(budget));
    int runs = 0;
    Clock::duration last{};
    do {
        const Clock::time_point t0 = Clock::now();
        if (!unit())
            break;
        last = Clock::now() - t0;
        ++runs;
    } while (Clock::now() + last < deadline);
    return runs;
}

/** Percentile @p p (0..100) of @p samples, linear interpolation. */
double percentile(std::vector<double> samples, double p);

/** FNV-1a over @p s. */
std::uint64_t fnv1a(const std::string &s);

/** Full counter dump plus per-frame cycles, in the golden-counter
 *  test's format, so its hash identifies a simulation's outputs. */
std::string counterDump(const libra::RunResult &r);

/**
 * The 2-RU x 4-core machine at @p width x @p height with the registry
 * policy @p policy applied (fatal on an unknown name).
 */
libra::GpuConfig machineConfig(std::uint32_t width, std::uint32_t height,
                               const char *policy);

/**
 * Record the exact model counts (gpu.*, cache.*, dram.*,
 * core.ranking_cycles, core.re_tiles_skipped) summed over @p runs.
 * "Steady" model cycles skip each run's first frame.
 */
void reportModelCounts(Report &rep,
                       const std::vector<const libra::RunResult *> &runs);

// Workloads. Each runs one pass: set-up, then its unit of work
// repeated until opt.budget is spent, with output checks; spans are
// recorded when enabled. Set-up and every repetition go to the Report
// as raw samples.
void runFrameLoop(const Options &opt, Report &rep);
void runSweep(const Options &opt, Report &rep);
void runFarm(const Options &opt, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
