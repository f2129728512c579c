/**
 * @file
 * Parallel sweep engine: run many (benchmark, config) simulations
 * concurrently on a pool of workers that take jobs off one shared
 * cursor, under a failure policy (SweepPolicy, DESIGN.md §7 "Failure
 * model").
 *
 * Simulations are embarrassingly parallel — each owns its Gpu, its
 * EventQueue and all mutable state — so a sweep of N configurations
 * scales with the host's cores. Two properties are guaranteed:
 *
 *  - **Determinism.** Results come back indexed by submission order and
 *    each simulation is bit-identical to a serial run: the worker count
 *    affects wall-clock time only, never a single statistic.
 *  - **Error isolation.** A job that fails (invalid config, watchdog
 *    giving up, even a stray exception) reports its Status in its own
 *    slot; the remaining jobs run to completion.
 *
 * A shared SceneCache lets the N configs of one benchmark build the
 * scene (geometry + texture pool) once: Scene is immutable after
 * construction, so concurrent readers need no locking.
 */

#ifndef LIBRA_SIM_SWEEP_HH
#define LIBRA_SIM_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "check/fault_injector.hh"
#include "common/status.hh"
#include "gpu/gpu_config.hh"
#include "gpu/runner.hh"
#include "workload/benchmarks.hh"
#include "workload/scene.hh"

namespace libra
{

/** One simulation of a sweep: render @p frames of @p spec under
 *  @p config, starting at absolute frame @p firstFrame. */
struct SweepJob
{
    const BenchmarkSpec *spec = nullptr;
    GpuConfig config;
    std::uint32_t frames = 0;
    std::uint32_t firstFrame = 0;
};

/**
 * Thread-safe cache of built scenes, keyed by (benchmark, resolution).
 * Concurrent requests for the same key block until the single builder
 * finishes; the returned Scene is shared read-only.
 */
class SceneCache
{
  public:
    /** The scene for (@p spec, @p width x @p height), built at most
     *  once per key for the cache's lifetime. */
    std::shared_ptr<const Scene> get(const BenchmarkSpec &spec,
                                     std::uint32_t width,
                                     std::uint32_t height);

    /** Scenes actually constructed — test hook for the build-once
     *  guarantee. */
    std::uint64_t builds() const { return built.load(); }

  private:
    using Key = std::tuple<std::string, std::uint32_t, std::uint32_t>;

    struct Slot
    {
        std::once_flag once;
        std::shared_ptr<const Scene> scene;
    };

    std::mutex mtx;                                //!< guards slots map
    std::map<Key, std::shared_ptr<Slot>> slots;
    std::atomic<std::uint64_t> built{0};
};

/**
 * Checkpointing policy of one sweep (DESIGN.md §10). Two independent
 * mechanisms, both built on frame-boundary snapshots
 * (src/check/snapshot.hh):
 *
 *  - **Periodic checkpoints** (@ref dir + @ref every): every job writes
 *    a snapshot into @ref dir every N frames; with @ref fromCheckpoint
 *    a re-run sweep restores each job from its freshest usable
 *    snapshot and renders only the remaining frames. Byte-identity:
 *    the resumed results equal the uninterrupted ones.
 *  - **Warm-prefix forking** (@ref warmPrefixFrames): jobs differing
 *    only in the adaptive-controller thresholds (equal
 *    GpuConfig::warmPrefixHash(), same benchmark/resolution/frame
 *    range — e.g. a fig19_sensitivity threshold sweep) render
 *    byte-identical opening frames. The first group member runs that
 *    prefix once, snapshots in memory, and every member forks from the
 *    restored state instead of re-rendering it. Disabled while a fault
 *    plan is armed (injected faults are positional; forking would
 *    change what each job observes).
 */
struct CheckpointPolicy
{
    /** Snapshot directory; empty disables periodic checkpointing. */
    std::string dir;

    /** Write a snapshot every N finished frames (0 = never). */
    std::uint32_t every = 0;

    /** Restore each job from the freshest usable snapshot in dir. */
    bool fromCheckpoint = false;

    /**
     * Warm-prefix length in frames shared across a threshold sweep; 0
     * disables forking. Must not exceed the frames the adaptive
     * controller renders before its thresholds first matter (the
     * controller compares frame feedback from frame 2 on, so 2 is the
     * safe default).
     */
    std::uint32_t warmPrefixFrames = 0;
};

/**
 * Failure-handling policy for SweepRunner::runWithPolicy. The default
 * policy (all fields at their defaults) runs every job once: no
 * deadline, no retry, no quarantine, no journal.
 *
 * See DESIGN.md, "Failure model", for the taxonomy behind the knobs.
 */
struct SweepPolicy
{
    /** Wall-clock deadline per job *attempt* in milliseconds; 0 = none.
     *  Enforced cooperatively via the Watchdog's deadline: the job
     *  aborts with DeadlineExceeded at its next event-loop poll. */
    std::uint64_t deadlineMs = 0;

    /** Extra attempts after a transient failure (isTransientFailure:
     *  Unavailable, DeadlineExceeded). Permanent failures never
     *  retry — the simulator is deterministic. */
    std::uint32_t maxRetries = 0;

    /** Base delay before retry k, doubling each time
     *  (backoffMs << k, capped at 30 s); 0 = retry immediately. */
    std::uint64_t backoffMs = 0;

    /**
     * Permanent failures of one configHash() after which further jobs
     * with that config fail fast (FailedPrecondition, "quarantined")
     * instead of burning a worker on a known-poisoned config; 0
     * disables. When enabled, jobs sharing a config hash execute as
     * one sequential chain (in submission order) so quarantine
     * decisions are deterministic — distinct configs still run fully
     * parallel.
     */
    std::uint32_t quarantineThreshold = 0;

    /** Crash-safe result journal (sim/journal.hh, records in
     *  sweep_journal.hh); empty = no journal. */
    std::string journalPath;

    /** Replay journaled successes instead of re-running them; failed
     *  and unfinished jobs re-run. Needs journalPath. */
    bool resume = false;

    /** Armed fault plan (chaos testing; empty = no injection). */
    FaultPlan faults;

    /** Snapshot/restore and warm-prefix forking (see CheckpointPolicy). */
    CheckpointPolicy checkpoint;
};

/**
 * The one quarantine rule of the sweep and the sim farm (DESIGN.md §7):
 * once one configHash() has failed permanently @p threshold times, its
 * further jobs fail fast instead of burning a worker on a config known
 * to be poisoned. Only permanent failures count — a transient one
 * (isTransientFailure) says nothing about the config — and a threshold
 * of 0 disables the rule. Thread-safe.
 */
class Quarantine
{
  public:
    explicit Quarantine(std::uint32_t threshold) : threshold(threshold) {}

    /** FailedPrecondition ("config quarantined after N permanent
     *  failures") once @p config_hash has reached the threshold; ok
     *  otherwise. */
    Status check(std::uint64_t config_hash) const;

    /** Count a failure of @p config_hash with @p code against it. */
    void record(std::uint64_t config_hash, ErrorCode code);

  private:
    const std::uint32_t threshold;
    mutable std::mutex mtx; //!< guards failures
    std::unordered_map<std::uint64_t, std::uint32_t> failures;
};

/** Result plus execution metadata of one job under runWithPolicy. */
struct JobOutcome
{
    Result<RunResult> result =
        Status::error(ErrorCode::Unavailable, "job never ran");

    std::uint32_t attempts = 0;  //!< attempts consumed (0 if replayed)
    bool fromJournal = false;    //!< replayed, not executed
    bool quarantined = false;    //!< failed fast on a quarantined config
    bool notRun = false;         //!< sweep died before this job started
};

/** Everything runWithPolicy learned about a sweep. */
struct SweepOutcome
{
    std::vector<JobOutcome> jobs; //!< submission order

    /** The journal's simulated kill fired (fault plans only): appends
     *  stopped and unstarted jobs were abandoned, as a real SIGKILL
     *  would. */
    bool killed = false;

    std::uint64_t replayedFromJournal = 0;

    /** Jobs that forked from a shared warm-prefix snapshot instead of
     *  rendering their opening frames cold (CheckpointPolicy). */
    std::uint64_t warmPrefixForks = 0;

    /** Jobs whose final result is a failure (incl. quarantined and
     *  not-run). */
    std::size_t failureCount() const;
};

/**
 * Pool of sweep workers.
 *
 * The job list is fixed before any worker starts, so workers take the
 * next job (or quarantine chain) off one shared atomic cursor: a worker
 * that finishes early simply takes more, and a handful of long
 * simulations cannot strand the others idle. The calling thread is one
 * of the workers; a one-worker sweep starts no thread.
 */
class SweepRunner
{
  public:
    /** @p workers 0 picks std::thread::hardware_concurrency(). */
    explicit SweepRunner(unsigned workers = 0);

    /**
     * Run every job under @p policy and return the outcomes in
     * submission order: per-attempt wall-clock deadlines, bounded
     * exponential-backoff retries for transient failures, quarantine
     * of repeatedly-failing configs, a crash-safe result journal with
     * resume, and fault injection. Every job's config is validated
     * before its scene is fetched, so an invalid config fails that job
     * alone. With @p cache non-null, scenes are built through it (and
     * shared with any other sweep using the same cache); otherwise the
     * sweep uses a cache of its own. Failure Status
     * messages are prefixed "job <index> [<key>]: " (the key carries
     * benchmark, resolution, frame range and config hash) so farm logs
     * are attributable. A sweep with failures still completes — policy
     * on whether that fails the process lives with the caller (bench
     * binaries: exit nonzero unless --keep-going).
     *
     * Guarantee: with a default policy, every result is bit-identical
     * to a serial runBenchmark() of its job, whatever the worker
     * count.
     */
    SweepOutcome runWithPolicy(std::vector<SweepJob> jobs,
                               const SweepPolicy &policy,
                               SceneCache *cache = nullptr);

    unsigned workers() const { return workerCount; }

  private:
    unsigned workerCount;
};

} // namespace libra

#endif // LIBRA_SIM_SWEEP_HH
