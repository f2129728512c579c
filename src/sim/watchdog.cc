#include "sim/watchdog.hh"

namespace libra
{

Status
Watchdog::check(Tick now) const
{
    if (config.cycleBudget != 0 && now - startTick > config.cycleBudget) {
        return Status::error(ErrorCode::WatchdogExpired,
                             "cycle budget exceeded: ", now - startTick,
                             " cycles elapsed, budget ",
                             config.cycleBudget);
    }
    if (config.noProgressCycles != 0
        && now - lastProgressTick > config.noProgressCycles) {
        return Status::error(ErrorCode::NoProgress,
                             "no progress for ", now - lastProgressTick,
                             " cycles (limit ", config.noProgressCycles,
                             "), last progress at tick ",
                             lastProgressTick);
    }
    if (config.deadline && --deadlinePollCountdown == 0) {
        deadlinePollCountdown = kDeadlinePollInterval;
        if (std::chrono::steady_clock::now() >= *config.deadline) {
            return Status::error(ErrorCode::DeadlineExceeded,
                                 "wall-clock deadline exceeded at tick ",
                                 now);
        }
    }
    return Status::ok();
}

} // namespace libra
