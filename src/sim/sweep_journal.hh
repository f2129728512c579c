/**
 * @file
 * Sweep result journal: the record codec that turns each finished
 * sweep job's outcome into one line of a crash-safe Journal
 * (sim/journal.hh), keyed on (benchmark, resolution, frame range,
 * config hash).
 *
 * Purpose: a multi-hour sweep killed at any point — power loss, OOM
 * kill, ^C — must not lose completed work. Each job outcome is one
 * self-contained line, durable on disk before the sweep moves on;
 * on restart, SweepRunner::runWithPolicy with SweepPolicy::resume
 * replays journaled successes (restoring the full RunResult, so the
 * regenerated report is byte-identical to an uninterrupted run) and
 * re-runs only the remainder.
 *
 * Line format (`libra.sweep_journal/1`), one JSON object per line:
 *
 *   {"schema":"libra.sweep_journal/1",
 *    "key":"CCS:256x128:f2@0:cfg:0123456789abcdef",
 *    "ok":true,"attempts":1,"result":{...full RunResult...}}
 *   {"schema":"libra.sweep_journal/1","key":"...","ok":false,
 *    "attempts":3,"code":"unavailable","message":"..."}
 *
 * Crash tolerance and the simulated kill(9) are the Journal's: a torn
 * trailing line is discarded and the job treated as never-finished.
 * Not journaled: the GpuConfig (the resumed sweep re-specifies
 * identical jobs — the key's config hash verifies that) and the
 * event-trace TraceSink (side artifact, not part of a sweep report).
 */

#ifndef LIBRA_SIM_SWEEP_JOURNAL_HH
#define LIBRA_SIM_SWEEP_JOURNAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"
#include "gpu/runner.hh"

namespace libra
{

struct SweepJob;
struct JsonValue;
class JsonWriter;

/** One journaled job outcome. */
struct JournalRecord
{
    std::string key;
    bool ok = false;
    std::uint32_t attempts = 1; //!< attempts consumed (1 = no retries)

    // When !ok:
    ErrorCode code = ErrorCode::Ok;
    std::string message;

    // When ok (config and trace are not journaled; see file header):
    RunResult result;
};

/**
 * Stable identity of a sweep job: benchmark abbrev, resolution, frame
 * range and the 16-hex-digit GpuConfig::configHash(). Two jobs with
 * equal keys produce byte-identical results (the simulator is
 * deterministic), which is what makes replay sound.
 */
std::string sweepJobKey(const SweepJob &job);

/** Serialize @p r (minus config/trace) as one JSON object value. */
void runResultToJson(JsonWriter &w, const RunResult &r);

/** Inverse of runResultToJson; CorruptData on structural problems.
 *  64-bit integers are recovered exactly (the parser keeps the raw
 *  literal), image pixel hashes round-trip via hex strings. */
Result<RunResult> runResultFromJson(const JsonValue &v);

/** One `libra.sweep_journal/1` line (no newline) for @p record. */
std::string sweepJournalLine(const JournalRecord &record);

/** Every durable record of the sweep journal at @p path, under the
 *  Journal::load rules; CorruptData on a malformed record. */
Result<std::vector<JournalRecord>>
loadSweepJournal(const std::string &path);

} // namespace libra

#endif // LIBRA_SIM_SWEEP_JOURNAL_HH
