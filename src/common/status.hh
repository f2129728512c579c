/**
 * @file
 * Recoverable, structured errors for library entry points.
 *
 * libra-sim distinguishes three failure channels (see DESIGN.md,
 * "Error handling conventions"):
 *
 *  - panic():  an internal simulator invariant broke — a libra-sim bug;
 *              aborts.
 *  - fatal():  a CLI-boundary error in a bench/example binary; exits.
 *  - Status /  everything a *caller* may reasonably want to recover
 *    Result<T>: from — unreadable or corrupt trace files, invalid
 *              configurations, a wedged simulation caught by the
 *              watchdog. Library APIs return these instead of killing
 *              the process, so a 32-game x 25-frame sweep survives one
 *              bad input.
 *
 * Status is a code plus a human-readable message; Result<T> is a Status
 * or a value. Both are [[nodiscard]]: dropping an error is itself a bug.
 */

#ifndef LIBRA_COMMON_STATUS_HH
#define LIBRA_COMMON_STATUS_HH

#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "common/log.hh"

namespace libra
{

/** Coarse error taxonomy; the message carries the specifics. */
enum class ErrorCode
{
    Ok = 0,
    InvalidArgument,    //!< a parameter/config failed validation
    NotFound,           //!< named entity (benchmark, file) is unknown
    IoError,            //!< the OS failed a read/write/open
    CorruptData,        //!< on-disk bytes failed structural validation
    WatchdogExpired,    //!< simulation exceeded its cycle budget
    NoProgress,         //!< simulation livelocked/deadlocked
    FailedPrecondition, //!< object unusable (e.g. wedged GPU reused)
    InvariantViolation, //!< a model conservation law failed to hold
    DeadlineExceeded,   //!< wall-clock deadline hit
    Unavailable,        //!< transient infrastructure failure; retryable
};

/** Printable name of an ErrorCode (e.g. "corrupt data"). */
const char *errorCodeName(ErrorCode code);

/**
 * Failure classification for retry policies (DESIGN.md, "Failure
 * model"): transient failures are those where an identical retry can
 * plausibly succeed — an injected/infrastructure hiccup (Unavailable)
 * or a wall-clock deadline hit on a loaded host (DeadlineExceeded).
 * Everything else is permanent: the simulator is deterministic, so a
 * corrupt trace, an invalid config, a cycle-budget watchdog trip or a
 * violated conservation law will fail identically every time.
 */
bool isTransientFailure(ErrorCode code);

/** An error code plus message, or success. */
class [[nodiscard]] Status
{
  public:
    /** Default construction is success. */
    Status() = default;

    Status(ErrorCode code, std::string message)
        : errCode(code), msg(std::move(message))
    {}

    static Status ok() { return Status(); }

    template <typename... Args>
    static Status
    error(ErrorCode code, Args &&...args)
    {
        return Status(code, detail::format(std::forward<Args>(args)...));
    }

    bool isOk() const { return errCode == ErrorCode::Ok; }
    explicit operator bool() const { return isOk(); }

    ErrorCode code() const { return errCode; }
    const std::string &message() const { return msg; }

    /** "corrupt data: trace.ltrc: bad magic" (or "ok"). */
    std::string toString() const;

  private:
    ErrorCode errCode = ErrorCode::Ok;
    std::string msg;
};

/** A value of type T, or the Status explaining why there is none. */
template <typename T>
class [[nodiscard]] Result
{
  public:
    Result(T value) : val(std::move(value)) {}

    /** Implicit from a non-ok Status so `return st;` propagates. */
    Result(Status status) : st(std::move(status))
    {
        libra_assert(!st.isOk(), "Result built from an ok Status");
    }

    bool isOk() const { return val.has_value(); }
    explicit operator bool() const { return isOk(); }

    /** Underlying status: ok() exactly when a value is present. */
    const Status &status() const { return st; }

    T &
    value()
    {
        libra_assert(isOk(), "value() on error Result: ", st.toString());
        return *val;
    }
    const T &
    value() const
    {
        libra_assert(isOk(), "value() on error Result: ", st.toString());
        return *val;
    }

    T &operator*() { return value(); }
    const T &operator*() const { return value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

  private:
    Status st;            //!< Ok when val is engaged
    std::optional<T> val;
};

} // namespace libra

#endif // LIBRA_COMMON_STATUS_HH
