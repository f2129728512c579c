/**
 * @file
 * Crash-safe JSON-lines journal: the one durable-append primitive under
 * both the sweep's result journal (sweep_journal.hh) and the sim farm's
 * accepted-request journal (farm_server.hh).
 *
 * Every record is one JSON object on one line carrying a "schema"
 * member. append() writes the line and its newline and syncs the file
 * to disk before returning, so a record is durable exactly when its
 * newline is on disk. A process killed mid-append leaves at most one
 * torn trailing line; load() drops it with a warning. An unparseable
 * line anywhere before the last, or a line of another schema, is real
 * corruption (CorruptData).
 *
 * Fault hook: armKill(n) simulates the process dying during the nth
 * append — half the line's bytes reach the file, nothing is synced, and
 * every later append is a silent no-op, which is what a kill(9) at that
 * point leaves on disk. The chaos soak drives kill-and-resume with it.
 */

#ifndef LIBRA_SIM_JOURNAL_HH
#define LIBRA_SIM_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hh"
#include "trace/json.hh"

namespace libra
{

class Journal
{
  public:
    enum class Mode
    {
        Append,   //!< keep the records already there
        Truncate, //!< start from an empty file
    };

    Journal() = default;
    ~Journal();
    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /** Open @p path in @p mode, creating it if absent. */
    Status open(const std::string &path, Mode mode);

    bool isOpen() const { return file != nullptr; }

    /** Write @p line (one JSON object, no newline) plus a newline and
     *  sync it to disk. Appends from several threads serialise. No-op
     *  once killed(). */
    Status append(const std::string &line);

    /** Fault hook: simulate death during the @p at_append'th append
     *  (1-based); 0 disarms. */
    void armKill(std::uint64_t at_append);

    /** True once the simulated kill fired. */
    bool killed() const;

    /**
     * Every durable record of @p path in file order. A missing file is
     * an empty journal; a torn final line is dropped; an earlier
     * unparseable line or a record whose "schema" is not @p schema is
     * CorruptData. Record i is line i + 1 of the file, counting
     * non-empty lines.
     */
    static Result<std::vector<JsonValue>> load(const std::string &path,
                                               const char *schema);

  private:
    mutable std::mutex mtx; //!< guards everything below
    std::FILE *file = nullptr;
    std::string filePath;
    std::uint64_t appendCount = 0;
    std::uint64_t killAt = 0;
    bool killedFlag = false;
};

} // namespace libra

#endif // LIBRA_SIM_JOURNAL_HH
