/**
 * @file
 * Status and error reporting, following the gem5 fatal/panic distinction:
 *
 *  - panic():  an internal simulator invariant broke (a libra-sim bug);
 *              aborts so a debugger/core dump can catch it.
 *  - fatal():  the user asked for something impossible (bad config);
 *              exits with an error code.
 *  - warn()/inform(): non-fatal status messages.
 */

#ifndef LIBRA_COMMON_LOG_HH
#define LIBRA_COMMON_LOG_HH

#include <sstream>
#include <string>

namespace libra
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

namespace detail
{

template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

} // namespace libra

/** Abort on a simulator bug. Usage: panic("bad state ", x). */
#define panic(...) \
    ::libra::panicImpl(__FILE__, __LINE__, ::libra::detail::format(__VA_ARGS__))

/** Exit on a user/configuration error. */
#define fatal(...) \
    ::libra::fatalImpl(__FILE__, __LINE__, ::libra::detail::format(__VA_ARGS__))

/** Non-fatal warning. */
#define warn(...) ::libra::warnImpl(::libra::detail::format(__VA_ARGS__))

/** Status message. */
#define inform(...) ::libra::informImpl(::libra::detail::format(__VA_ARGS__))

/** Checked invariant that stays on in release builds. */
#define libra_assert(cond, ...) \
    do { \
        if (!(cond)) \
            panic("assertion failed: " #cond " ", \
                  ::libra::detail::format(__VA_ARGS__)); \
    } while (0)

#endif // LIBRA_COMMON_LOG_HH
