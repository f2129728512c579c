/**
 * @file
 * Simulation watchdog: detects wedged simulations so a batch sweep can
 * skip a pathological frame instead of spinning forever.
 *
 * Two independent triggers, both disabled (0) by default so the
 * reproduction benches are unaffected:
 *
 *  - cycleBudget:      hard per-frame cycle ceiling. Trips when the
 *                      frame has consumed more simulated cycles than the
 *                      budget, whatever it is doing.
 *  - noProgressCycles: livelock detector. The driving loop marks
 *                      progress() at milestones (a tile flushed, the
 *                      geometry phase finished); if the simulated clock
 *                      advances more than this many cycles without a
 *                      mark, the simulation is churning events without
 *                      getting anywhere.
 *
 * A third, optional trigger extends the watchdog beyond simulated
 * cycles: a *wall-clock* deadline. SweepRunner arms one per job attempt
 * so a sweep can bound how long any single simulation may hold a worker
 * thread (cooperative: the simulation aborts at the next event-loop
 * check rather than being killed mid-update).
 *
 * The watchdog itself is pure bookkeeping (two compares per check; the
 * wall clock is only sampled every few thousand checks), so callers can
 * poll it every event-loop iteration.
 */

#ifndef LIBRA_SIM_WATCHDOG_HH
#define LIBRA_SIM_WATCHDOG_HH

#include <chrono>
#include <cstdint>
#include <optional>

#include "common/status.hh"
#include "common/types.hh"

namespace libra
{

/** Watchdog limits; 0 disables the corresponding trigger. */
struct WatchdogConfig
{
    std::uint64_t cycleBudget = 0;      //!< max cycles per frame
    std::uint64_t noProgressCycles = 0; //!< max cycles between marks

    /**
     * Optional wall-clock deadline (absolute steady_clock time). Not a
     * property of the simulated machine: it never alters a single
     * statistic of a run that completes, only whether the run is
     * aborted early (DeadlineExceeded) — and is therefore excluded
     * from configHash().
     */
    std::optional<std::chrono::steady_clock::time_point> deadline;
};

class Watchdog
{
  public:
    Watchdog(const WatchdogConfig &cfg, Tick start)
        : config(cfg), startTick(start), lastProgressTick(start)
    {}

    /** Record a forward-progress milestone at @p now. */
    void
    progress(Tick now)
    {
        if (now > lastProgressTick)
            lastProgressTick = now;
    }

    /**
     * @return ok while within limits; WatchdogExpired once the cycle
     * budget is exceeded; NoProgress once the livelock limit is hit;
     * DeadlineExceeded once the wall-clock deadline has passed. The
     * clock is only read every kDeadlinePollInterval checks — reading
     * it per simulated event would dominate the event loop.
     */
    Status check(Tick now) const;

    Tick start() const { return startTick; }
    Tick lastProgress() const { return lastProgressTick; }

    /** Checks between deadline polls (~µs of wall time apart). */
    static constexpr std::uint32_t kDeadlinePollInterval = 4096;

  private:
    WatchdogConfig config;
    Tick startTick;
    Tick lastProgressTick;
    mutable std::uint32_t deadlinePollCountdown = kDeadlinePollInterval;
};

} // namespace libra

#endif // LIBRA_SIM_WATCHDOG_HH
