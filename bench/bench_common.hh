/**
 * @file
 * Shared plumbing for the figure/table reproduction binaries.
 *
 * Every bench accepts:
 *   --frames N            frames per run (default 4; paper used 25)
 *   --policy NAME         apply a registered scheduling/pipeline
 *                         policy preset onto every config the bench
 *                         builds (see src/gpu/policy_registry.hh;
 *                         e.g. zorder, libra, re, re-libra)
 *   --width W --height H  screen (default 960x544 for speed)
 *   --benchmarks a,b,c    explicit benchmark subset
 *   --full                paper-scale: FHD, 25 frames, whole suite
 *   --csv                 emit CSV instead of aligned tables
 *   --jobs N              parallel simulations (default: all cores)
 *   --outdir DIR          where image/trace artifacts go (bench_out/)
 *   --report-out FILE     machine-readable RunReport JSON for the sweep
 *   --trace-out FILE      chrome-trace timeline (job 0 exact path,
 *                         job N suffixed FILE.N.json; open in Perfetto)
 *
 * Failure policy (see DESIGN.md, "Failure model"):
 *   --deadline-ms N       wall-clock deadline per job attempt (0 = off)
 *   --retries N           retries after a transient failure
 *   --backoff-ms N        base retry delay, doubling per attempt
 *   --quarantine N        permanent failures per config before its
 *                         remaining jobs fail fast (0 = off)
 *   --journal FILE        append-only crash-safe result journal
 *   --resume              replay journaled successes, re-run the rest
 *   --keep-going          exit 0 even if jobs failed (default: failed
 *                         jobs make the bench exit nonzero)
 *   --faults SPEC         armed fault plan (chaos testing; see
 *                         FaultPlan::parse)
 *
 * Checkpointing (DESIGN.md §10):
 *   --checkpoint-dir DIR  snapshot directory for periodic checkpoints
 *   --checkpoint-every N  write a snapshot every N frames (needs
 *                         --checkpoint-dir; 0 = never)
 *   --from-checkpoint     restore each job from its freshest usable
 *                         snapshot in --checkpoint-dir
 *   --warm-prefix N       fork jobs sharing an N-frame warm prefix
 *                         (equal warmPrefixHash) from one in-memory
 *                         snapshot instead of re-rendering it (0 = off)
 *
 * The sim-farm daemon (DESIGN.md §12) is `libra_farm --serve`.
 *
 * Default runs use a representative subset at reduced resolution so the
 * whole bench directory executes in minutes; --full reproduces the
 * paper-scale configuration (32 benchmarks, FHD, 25 frames).
 */

#ifndef LIBRA_BENCH_BENCH_COMMON_HH
#define LIBRA_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cli.hh"
#include "common/log.hh"
#include "gpu/policy_registry.hh"
#include "gpu/runner.hh"
#include "sim/sweep.hh"
#include "sim/sweep_journal.hh"
#include "trace/json.hh"
#include "trace/report.hh"
#include "trace/run_report.hh"
#include "workload/benchmarks.hh"

namespace libra::bench
{

struct BenchOptions
{
    std::uint32_t frames = 4;
    std::string policy; //!< registry policy preset ("" = bench default)
    std::uint32_t width = 960;
    std::uint32_t height = 544;
    std::vector<std::string> benchmarks;
    bool csv = false;
    bool full = false;
    unsigned jobs = 0; //!< parallel simulations; 0 = hardware threads
    std::string outdir = "bench_out"; //!< image/trace artifacts
    std::string reportOut; //!< RunReport JSON path ("" = don't write)
    std::string traceOut;  //!< chrome-trace path ("" = don't record)

    // Failure policy (forwarded into SweepPolicy by Sweep).
    std::uint64_t deadlineMs = 0;  //!< per-attempt deadline; 0 = none
    std::uint32_t retries = 0;     //!< transient-failure retries
    std::uint64_t backoffMs = 100; //!< base retry delay
    std::uint32_t quarantine = 0;  //!< strikes before fast-fail; 0 = off
    std::string journal;           //!< crash-safe journal ("" = none)
    bool resume = false;           //!< replay journaled successes
    bool keepGoing = false;        //!< failed jobs don't fail the bench
    std::string faults;            //!< FaultPlan spec ("" = none)

    // Checkpointing (forwarded into SweepPolicy::checkpoint by Sweep).
    std::string checkpointDir;       //!< snapshot dir ("" = off)
    std::uint32_t checkpointEvery = 0; //!< frames between snapshots
    bool fromCheckpoint = false;     //!< restore jobs from snapshots
    std::uint32_t warmPrefix = 0;    //!< warm-prefix fork length; 0=off
};

/** Reduced default subsets keeping the default runtime small. */
inline std::vector<std::string>
defaultMemorySubset()
{
    return {"AAt", "CCS", "CoC", "GrT", "HCR", "Jet", "RoK", "SuS"};
}

inline std::vector<std::string>
defaultComputeSubset()
{
    return {"GDL", "CrS", "ArK", "MiN", "PoG", "ZuM"};
}

/** Every option parseBenchOptions() accepts, plus @p extra_options. */
inline std::vector<std::string>
benchOptionNames(const std::vector<std::string> &extra_options = {})
{
    std::vector<std::string> known{
        "frames", "width", "height", "benchmarks", "full", "csv",
        "policy",
        "jobs", "outdir", "report-out", "trace-out",
        // failure policy
        "deadline-ms", "retries", "backoff-ms", "quarantine",
        "journal", "resume", "keep-going", "faults",
        // checkpointing
        "checkpoint-dir", "checkpoint-every", "from-checkpoint",
        "warm-prefix"};
    known.insert(known.end(), extra_options.begin(),
                 extra_options.end());
    return known;
}

inline BenchOptions
parseBenchOptions(int argc, char **argv,
                  std::vector<std::string> default_benchmarks,
                  std::vector<std::string> full_benchmarks,
                  const std::vector<std::string> &extra_options = {})
{
    const CliArgs args(argc, argv, benchOptionNames(extra_options));

    BenchOptions opt;
    opt.full = args.getBool("full");
    if (opt.full) {
        opt.frames = 25;
        opt.width = 1920;
        opt.height = 1080;
        opt.benchmarks = std::move(full_benchmarks);
    } else {
        opt.benchmarks = std::move(default_benchmarks);
    }
    opt.frames = static_cast<std::uint32_t>(
        args.getUint("frames", opt.frames));
    opt.width = static_cast<std::uint32_t>(
        args.getUint("width", opt.width));
    opt.height = static_cast<std::uint32_t>(
        args.getUint("height", opt.height));
    if (args.has("benchmarks"))
        opt.benchmarks = args.getList("benchmarks");
    opt.csv = args.getBool("csv");
    opt.policy = args.get("policy", "");
    if (!opt.policy.empty() && !findPolicy(opt.policy))
        fatal("--policy ", opt.policy, ": unknown; registered: ",
              policyNames());
    opt.jobs = static_cast<unsigned>(args.getUint(
        "jobs", std::max(1u, std::thread::hardware_concurrency())));
    if (opt.jobs == 0)
        fatal("--jobs must be at least 1");
    opt.outdir = args.get("outdir", opt.outdir);
    opt.reportOut = args.get("report-out", "");
    opt.traceOut = args.get("trace-out", "");

    opt.deadlineMs = args.getUint("deadline-ms", 0);
    opt.retries =
        static_cast<std::uint32_t>(args.getUint("retries", 0));
    opt.backoffMs = args.getUint("backoff-ms", opt.backoffMs);
    opt.quarantine = static_cast<std::uint32_t>(
        args.getUint("quarantine", 0));
    opt.journal = args.get("journal", "");
    opt.resume = args.getBool("resume");
    opt.keepGoing = args.getBool("keep-going");
    opt.faults = args.get("faults", "");
    if (opt.resume && opt.journal.empty())
        fatal("--resume needs --journal FILE");

    opt.checkpointDir = args.get("checkpoint-dir", "");
    opt.checkpointEvery = static_cast<std::uint32_t>(
        args.getUint("checkpoint-every", 0));
    opt.fromCheckpoint = args.getBool("from-checkpoint");
    opt.warmPrefix = static_cast<std::uint32_t>(
        args.getUint("warm-prefix", 0));
    if ((opt.checkpointEvery != 0 || opt.fromCheckpoint)
        && opt.checkpointDir.empty()) {
        fatal("--checkpoint-every / --from-checkpoint need "
              "--checkpoint-dir DIR");
    }

    libra_assert(opt.frames >= 2, "benches need at least 2 frames");
    return opt;
}

/** Path for an output artifact: @p opt.outdir / @p filename, creating
 *  the directory on first use (keeps .ppm dumps out of the CWD). */
inline std::string
outPath(const BenchOptions &opt, const std::string &filename)
{
    std::error_code ec;
    std::filesystem::create_directories(opt.outdir, ec);
    if (ec)
        fatal("cannot create --outdir ", opt.outdir, ": ", ec.message());
    return (std::filesystem::path(opt.outdir) / filename).string();
}

/** Apply the bench's screen size and --policy override to a config. */
inline GpuConfig
sized(GpuConfig cfg, const BenchOptions &opt)
{
    cfg.screenWidth = opt.width;
    cfg.screenHeight = opt.height;
    if (!opt.policy.empty()) {
        if (Status st = applyPolicy(cfg, opt.policy); !st.isOk())
            fatal("--policy: ", st.toString());
    }
    return cfg;
}

/**
 * CLI-boundary wrapper over runBenchmark(): the bench binaries have no
 * caller to hand an error to, so a bad configuration or a wedged run
 * ends the process with the library's message.
 */
inline RunResult
mustRun(const BenchmarkSpec &spec, const GpuConfig &cfg,
        std::uint32_t frames, std::uint32_t first_frame = 0)
{
    Result<RunResult> r = runBenchmark(spec, cfg, frames, first_frame);
    if (!r.isOk())
        fatal(spec.abbrev, ": ", r.status().toString());
    return std::move(*r);
}

/** CLI-boundary wrapper over memoryTimeFraction(). */
inline double
mustMemoryTimeFraction(const BenchmarkSpec &spec, const GpuConfig &cfg,
                       std::uint32_t frames)
{
    const Result<double> f = memoryTimeFraction(spec, cfg, frames);
    if (!f.isOk())
        fatal(spec.abbrev, ": ", f.status().toString());
    return *f;
}

/**
 * Batch of simulations executed in parallel (--jobs workers).
 *
 * Usage: enqueue every run with add() (recording the returned handles),
 * call run() once, then read results by handle — they come back in
 * submission order, bit-identical to a serial run, so the printing loop
 * of each bench stays exactly as it was. Scenes are shared: N configs
 * of one benchmark at one resolution build geometry/textures once.
 *
 * Failed jobs no longer abort the process mid-sweep: the sweep runs to
 * completion under the failure policy (deadlines, retries, quarantine,
 * journal — see SweepPolicy), a per-job failure summary goes to stderr
 * and the --report-out document records every failure. Failed handles
 * read as zeroed placeholder results so the bench's printing loop still
 * works (graceful degradation); the bench's main() must end with
 * `return sweep.exitCode();`, which is nonzero when any job failed
 * unless --keep-going was given.
 */
class Sweep
{
  public:
    explicit Sweep(const BenchOptions &opt)
        : runner(opt.jobs), reportOut(opt.reportOut),
          traceOut(opt.traceOut), keepGoing(opt.keepGoing)
    {
        policy.deadlineMs = opt.deadlineMs;
        policy.maxRetries = opt.retries;
        policy.backoffMs = opt.backoffMs;
        policy.quarantineThreshold = opt.quarantine;
        policy.journalPath = opt.journal;
        policy.resume = opt.resume;
        if (!opt.faults.empty()) {
            Result<FaultPlan> plan = FaultPlan::parse(opt.faults);
            if (!plan.isOk())
                fatal("--faults: ", plan.status().toString());
            policy.faults = std::move(*plan);
        }
        policy.checkpoint.dir = opt.checkpointDir;
        policy.checkpoint.every = opt.checkpointEvery;
        policy.checkpoint.fromCheckpoint = opt.fromCheckpoint;
        policy.checkpoint.warmPrefixFrames = opt.warmPrefix;
    }

    /** Enqueue one run; returns its result handle. */
    std::size_t
    add(const BenchmarkSpec &spec, GpuConfig cfg, std::uint32_t frames,
        std::uint32_t first_frame = 0)
    {
        libra_assert(results.empty(), "add() after run()");
        if (!traceOut.empty())
            cfg.traceEvents = true;
        jobs.push_back(SweepJob{&spec, cfg, frames, first_frame});
        return jobs.size() - 1;
    }

    /** Run every queued job across the worker pool under the failure
     *  policy; --report-out / --trace-out artifacts are written before
     *  returning, failures summarized on stderr. */
    void
    run()
    {
        // Keep a copy for job keys and placeholder synthesis — the
        // engine consumes the submitted vector.
        const std::vector<SweepJob> submitted = jobs;
        SweepOutcome out =
            runner.runWithPolicy(std::move(jobs), policy, &scenes);
        jobs.clear();
        killed = out.killed;
        warmForks = out.warmPrefixForks;

        results.reserve(out.jobs.size());
        for (std::size_t i = 0; i < out.jobs.size(); ++i) {
            JobOutcome &o = out.jobs[i];
            if (o.result.isOk()) {
                results.push_back(std::move(*o.result));
                continue;
            }
            const Status &st = o.result.status();
            ReportFailure f;
            f.jobIndex = i;
            f.key = sweepJobKey(submitted[i]);
            f.code = errorCodeName(st.code());
            f.message = st.message();
            f.attempts = o.attempts;
            f.quarantined = o.quarantined;
            f.notRun = o.notRun;
            failures.push_back(std::move(f));
            results.push_back(placeholder(submitted[i]));
        }

        if (!failures.empty()) {
            std::fprintf(stderr, "sweep: %zu of %zu jobs failed%s\n",
                         failures.size(), results.size(),
                         killed ? " (simulated kill fired)" : "");
            // The message is already attributed: "job N [key]: ...".
            for (const ReportFailure &f : failures)
                std::fprintf(stderr, "  %s: %s\n", f.code.c_str(),
                             f.message.c_str());
        }
        writeArtifacts();
    }

    /** Result of the job @p handle (valid after run()). A failed job
     *  reads as a zeroed placeholder — check failed() to tell. */
    const RunResult &
    operator[](std::size_t handle) const
    {
        libra_assert(handle < results.size(), "bad sweep handle");
        return results[handle];
    }

    /** Whether job @p handle failed (its result is a placeholder). */
    bool
    failed(std::size_t handle) const
    {
        for (const ReportFailure &f : failures)
            if (f.jobIndex == handle)
                return true;
        return false;
    }

    /** Process exit code under the failure policy: nonzero when any
     *  job failed, unless --keep-going. Bench mains return this. */
    int
    exitCode() const
    {
        return failures.empty() || keepGoing ? 0 : 1;
    }

    /** Jobs that forked from a shared warm-prefix snapshot (valid
     *  after run(); nonzero only with --warm-prefix). */
    std::uint64_t
    warmPrefixForks() const
    {
        return warmForks;
    }

  private:
    /** Job @p index's variant of @p path: exact for job 0,
     *  "stem.N.ext" otherwise. */
    static std::string
    indexedPath(const std::string &path, std::size_t index)
    {
        if (index == 0)
            return path;
        const std::filesystem::path p(path);
        std::filesystem::path out = p.parent_path() / p.stem();
        out += "." + std::to_string(index);
        out += p.extension();
        return out.string();
    }

    /** Zeroed stand-in for a failed job so result handles stay valid:
     *  right shape (frame count, indices, config), all-zero stats. */
    static RunResult
    placeholder(const SweepJob &job)
    {
        RunResult r;
        r.benchmark = job.spec ? job.spec->abbrev : "?";
        r.config = job.config;
        r.config.faults.reset();
        r.config.watchdog.cancel.reset();
        r.frames.resize(job.frames);
        for (std::uint32_t k = 0; k < job.frames; ++k) {
            FrameStats &fs = r.frames[k];
            fs.frameIndex = job.firstFrame + k;
            // Shape the per-tile / per-RU vectors like a real frame's
            // so downstream consumers (heatmaps, phase tables) see
            // zeros, not size-mismatch asserts. Guard against configs
            // so broken the shape itself is undefined.
            if (job.config.tileSize != 0) {
                fs.tileDram.assign(job.config.tileCount(), 0);
                fs.tileInstr.assign(job.config.tileCount(), 0);
            }
            fs.ruPhases.assign(job.config.rasterUnits, {});
        }
        return r;
    }

    void
    writeArtifacts() const
    {
        if (!reportOut.empty()) {
            // Completed runs only — failed jobs appear in "failures",
            // not as zeroed fake runs.
            std::vector<RunResult> runs;
            runs.reserve(results.size());
            for (std::size_t i = 0; i < results.size(); ++i)
                if (!failed(i))
                    runs.push_back(results[i]);
            if (Status st = writeTextFile(
                    reportOut, sweepReportJson(runs, failures));
                !st.isOk()) {
                fatal("--report-out: ", st.toString());
            }
        }
        if (!traceOut.empty()) {
            for (std::size_t i = 0; i < results.size(); ++i) {
                const RunResult &r = results[i];
                if (!r.trace)
                    continue;
                const std::string path = indexedPath(traceOut, i);
                if (Status st = r.trace->writeChromeTrace(path);
                    !st.isOk()) {
                    fatal("--trace-out: ", st.toString());
                }
            }
        }
    }

    SweepRunner runner;
    SceneCache scenes;
    SweepPolicy policy;
    std::vector<SweepJob> jobs;
    std::vector<RunResult> results;
    std::vector<ReportFailure> failures;
    std::string reportOut;
    std::string traceOut;
    bool keepGoing = false;
    bool killed = false;
    std::uint64_t warmForks = 0;
};

/**
 * Sum of cycles over the steady frames (frame 0 is cold: caches empty,
 * no scheduler history) — all configs are compared over the same set.
 */
inline std::uint64_t
steadyCycles(const RunResult &r)
{
    std::uint64_t total = 0;
    for (std::size_t i = 1; i < r.frames.size(); ++i)
        total += r.frames[i].totalCycles;
    return total;
}

inline double
steadySpeedup(const RunResult &base, const RunResult &other)
{
    return static_cast<double>(steadyCycles(base))
        / static_cast<double>(steadyCycles(other));
}

/** Mean over steady frames of a per-frame metric. */
template <typename Fn>
double
steadyMean(const RunResult &r, Fn &&metric)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 1; i < r.frames.size(); ++i) {
        sum += metric(r.frames[i]);
        ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

inline void
printTable(const Table &table, const BenchOptions &opt)
{
    if (opt.csv)
        std::fputs(table.csv().c_str(), stdout);
    else
        table.print();
}

/** Arithmetic mean (the paper reports arithmetic average speedups). */
inline double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace libra::bench

#endif // LIBRA_BENCH_BENCH_COMMON_HH
