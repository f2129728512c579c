/**
 * @file
 * Deterministic, seeded fault injection for robustness testing.
 *
 * A FaultPlan is a declarative list of faults to inject into a sweep —
 * watchdog trips at chosen frames, dropped cache fills (generalizing
 * Cache::testDropHitAccounting), DRAM request stalls, transient
 * job-level Status failures and simulated process kills in the journal
 * path. Plans parse from / print to a compact one-line spec so CI jobs
 * and the chaos-soak test can name a fault scenario by string + seed
 * and reproduce it exactly:
 *
 *   seed=42;watchdog@frame=1;dropfill:l2@every=64;
 *   dramstall@every=128,ticks=500;transient@job=3,count=2;kill@append=5
 *
 * A FaultInjector is the armed, per-job/per-attempt view of a plan:
 * SweepRunner builds a fresh one for every job attempt (so a retried
 * attempt sees exactly the faults the first attempt saw) and hands it
 * to the Gpu via GpuConfig::faults. All injection decisions are pure
 * functions of (plan, job index, query arguments) — no wall clock, no
 * global state — which is what lets the chaos soak assert that
 * completed-job results are byte-identical to a fault-free run.
 *
 * With no plan armed, every hook is a null/zero check, and the golden
 * counter dump (tests/test_perf_contracts.cc) pins an unarmed run.
 */

#ifndef LIBRA_CHECK_FAULT_INJECTOR_HH
#define LIBRA_CHECK_FAULT_INJECTOR_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"

namespace libra
{

/** One fault to inject; which fields are meaningful depends on kind. */
enum class FaultKind
{
    WatchdogTrip,  //!< abort a frame as if the watchdog expired
    DropCacheFill, //!< discard every Nth returning fill in a cache
    DramStall,     //!< add latency to every Nth DRAM command
    TransientFail, //!< fail a sweep-job attempt with Unavailable
    KillPoint,     //!< die mid-append in the journal path
};

/** Printable name of a FaultKind (the spec keyword, e.g. "dropfill"). */
const char *faultKindName(FaultKind kind);

struct FaultSpec
{
    FaultKind kind = FaultKind::WatchdogTrip;

    /** DropCacheFill: cache-name prefix ("l2", "tile_cache", "tex"). */
    std::string target;

    std::uint64_t frame = 0; //!< WatchdogTrip: frame index within a job
    std::uint64_t every = 0; //!< DropCacheFill/DramStall: period (Nth)
    std::uint64_t ticks = 0; //!< DramStall: extra latency per hit
    std::uint64_t job = 0;   //!< TransientFail: sweep job index
    std::uint64_t count = 1; //!< TransientFail: attempts to fail
    std::uint64_t append = 0; //!< KillPoint: die during this append
};

/** A seed plus the list of faults to inject. */
struct FaultPlan
{
    std::uint64_t seed = 0;
    std::vector<FaultSpec> faults;

    bool empty() const { return faults.empty(); }

    /** Render as the one-line spec accepted by parse(). */
    std::string toString() const;

    /**
     * Parse a spec string (see file header for the grammar). The empty
     * string is the empty plan. Errors are InvalidArgument with the
     * offending item quoted.
     */
    static Result<FaultPlan> parse(const std::string &spec);
};

/**
 * Seeded random plan generator for the chaos soak: a reproducible mix
 * of watchdog trips, dropped fills, DRAM stalls and transient job
 * failures over a sweep of @p num_jobs jobs. Never emits KillPoint —
 * that needs a cooperating harness; the soak's kill-and-resume round
 * trip arms it separately.
 */
FaultPlan fuzzFaultPlan(std::uint64_t seed, std::uint64_t num_jobs);

/** Trace-corruption modes for corruptTrace(). */
enum class TraceCorruption
{
    TruncateMidRecord, //!< cut the byte stream inside the record area
    BitFlipHeader,     //!< flip one bit inside the 24-byte header
};

/**
 * Deterministically damage an in-memory .ltrc byte image. @p seed picks
 * the cut point / bit. Inputs shorter than a header come back
 * unchanged-but-truncated-to-empty (still a corrupt stream). Used by
 * test_trace_corruption to generate its corpus.
 */
std::vector<std::uint8_t> corruptTrace(std::vector<std::uint8_t> bytes,
                                       TraceCorruption mode,
                                       std::uint64_t seed);

/**
 * The armed, per-job view of a FaultPlan. Construct one per job
 * *attempt*; it carries the only mutable injection state (the frame
 * counter), so rebuilding the Gpu mid-job — the runner does that after
 * a watchdog skip — does not reset fault positions.
 */
class FaultInjector
{
  public:
    FaultInjector(FaultPlan plan, std::uint64_t job_index)
        : thePlan(std::move(plan)), jobIndex(job_index)
    {}

    const FaultPlan &plan() const { return thePlan; }
    std::uint64_t job() const { return jobIndex; }

    /**
     * Called by Gpu::tryRenderFrame once per frame attempt; returns the
     * injector-local frame number (monotonic across Gpu rebuilds).
     */
    std::uint64_t frameStarted() { return framesStarted++; }

    /** Should frame @p frame abort as a watchdog trip? */
    bool tripWatchdogAtFrame(std::uint64_t frame) const;

    /** Drop-fill period for cache @p cache_name (0 = no injection). */
    std::uint64_t dropFillEvery(std::string_view cache_name) const;

    /** DRAM stall period (0 = no injection) and extra ticks. */
    std::uint64_t dramStallEvery() const;
    Tick dramStallTicks() const;

    /** Should job attempt @p attempt (0-based) fail as Unavailable? */
    bool failAttempt(std::uint64_t attempt) const;

    /** Journal kill point: die during the Nth append (0 = never). */
    std::uint64_t killAtAppend() const;

  private:
    FaultPlan thePlan;
    std::uint64_t jobIndex;
    std::uint64_t framesStarted = 0;
};

} // namespace libra

#endif // LIBRA_CHECK_FAULT_INJECTOR_HH
