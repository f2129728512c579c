/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A Span is opened around one call into a libra-sim module from the
 * benchmark's own code (the library itself is not instrumented). Each
 * record keeps its name, start, end and the span that was open on the
 * same thread when it started (its parent). Records stay in memory
 * until the run ends; then they are written out as a Chrome-trace JSON
 * file and folded into per-layer self times.
 *
 * Recording is off unless SpanLog::enable() was called, so an untraced
 * run pays one relaxed atomic load per Span.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>

namespace perfbench
{

/** Process-wide span store. */
class SpanLog
{
  public:
    static void enable(bool on);
    static bool enabled();

    /** Drop every recorded span (after timing what one costs). */
    static void clear();

    /** Write every span as Chrome-trace JSON ("X" events, one tid per
     *  recording thread); false if the file cannot be written. */
    static bool writeChromeTrace(const std::string &path);

    /**
     * Self time per span name in milliseconds: each span's duration
     * minus the part of it covered by its direct children.
     */
    static std::map<std::string, double> selfMs();

    static std::uint64_t count();
};

/** RAII span around one call. @p name must be a string literal. */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name;
    std::uint64_t id = 0;     //!< 0 when recording is off
    std::uint64_t parent = 0;
    std::int64_t startNs = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
