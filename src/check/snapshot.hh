/**
 * @file
 * Versioned frame-boundary snapshots of complete GPU state.
 *
 * A snapshot captures everything the simulator carries *across* a frame
 * boundary: cache lines and LRU clocks, the replication tracker, DRAM
 * bank state, the event-queue clock, the adaptive controller's
 * observation window, per-RU/core issue state, every registered
 * counter, the run-so-far RunResult and the TraceSink's lanes. Frame
 * boundaries are the only legal snapshot points: at the end of
 * Gpu::tryRenderFrame the event queue is drained, every MSHR is free,
 * the DRAM queues and wakeups are quiescent and the RUs assert idle —
 * so the transient machinery (events in flight, stalled requests) is
 * empty by construction and does not need to be serialized. The
 * InvariantChecker defines what "complete" means here; the restore
 * contract (DESIGN.md §10) is byte-identity: a run restored at frame F
 * produces counter dumps, reports and Chrome traces identical to the
 * uninterrupted run.
 *
 * On-disk format `libra.snapshot/1`: magic "LSNP", a format version, a
 * fixed header keying the snapshot on (config hash, warm-prefix hash,
 * scene hash, code version, first frame, frames done), then framed
 * sections `{u32 tag, u64 len, payload, u32 crc32}`. All integers are
 * little-endian; doubles are bit-cast to u64. Loading goes through
 * Status-returning validation like the .ltrc path: bad magic, an
 * unsupported version, a truncated section or a CRC mismatch are
 * recoverable CorruptData errors — callers fall back to a cold run,
 * never crash. Bump kSnapshotCodeVersion whenever serialized simulator
 * state changes meaning, so stale snapshots are refused, not misread.
 */

#ifndef LIBRA_CHECK_SNAPSHOT_HH
#define LIBRA_CHECK_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"

namespace libra
{

/** Container layout version; bump on any framing change. */
constexpr std::uint32_t kSnapshotFormatVersion = 1;

/**
 * Serialized-state version; bump whenever the *meaning* of any section
 * payload changes (new field, reordered member, changed invariant), so
 * snapshots written by older code are refused instead of misread.
 */
constexpr std::uint32_t kSnapshotCodeVersion = 4;
// v2: Scheduler section holds policy-object state (only LIBRA's
//     adaptive controller writes anything; stateless policies write
//     nothing) and GpuCore carries the Rendering Elimination input-
//     signature table.
// v3: configHash() no longer mixes the removed sharded-engine flag.
// v4: Result-section frames carry Rendering Elimination's per-frame
//     skip set (re_tiles_skipped, re_skipped_tiles).

/** Fixed header keying a snapshot to the run that may restore it. */
struct SnapshotHeader
{
    std::uint64_t configHash = 0;     //!< GpuConfig::configHash()
    std::uint64_t warmPrefixHash = 0; //!< GpuConfig::warmPrefixHash()
    std::uint64_t sceneHash = 0;      //!< snapshotSceneHash()
    std::uint32_t codeVersion = kSnapshotCodeVersion;
    std::uint32_t firstFrame = 0;     //!< first frame of the run
    std::uint32_t framesDone = 0;     //!< frames rendered before snap
};

/** Section tags; sections appear in this order, each exactly once. */
enum class SnapSection : std::uint32_t
{
    Result = 1,  //!< RunResult-so-far (JSON payload)
    Trace,       //!< TraceSink lanes + interned names
    Engine,      //!< EventQueue clock
    Caches,      //!< lines/LRU/ports for l2, vertex, tile, tex-L1s
    Dram,        //!< per-channel bank state, issue sequence
    Replication, //!< ReplicationTracker refcounts
    Scheduler,   //!< AdaptiveController window
    RasterUnits, //!< per-RU/core issue state, phase trackers
    GpuCore,     //!< frames rendered, feedback, geometry counters
    Counters,    //!< full StatGroup value dump

    /** Finished libra.run_report/1 JSON (sim-farm result cache,
     *  src/check/result_cache.hh) — the only section of a cache entry,
     *  never part of a GPU state snapshot. */
    CachedReport,
};

/**
 * Append-only binary builder. Construct with the header, then bracket
 * each section with beginSection()/endSection() (the CRC is computed at
 * end) and emit fields with the put*() family. finish() returns the
 * complete byte image. Misuse (nested/unterminated sections) panics —
 * writers are simulator code, not input validation.
 */
class SnapshotWriter
{
  public:
    explicit SnapshotWriter(const SnapshotHeader &header);

    void beginSection(SnapSection tag);
    void endSection();

    void putU8(std::uint8_t v);
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putDouble(double v);
    void putBool(bool v);
    void putString(const std::string &s);

    /** The finished byte image; the writer is spent afterwards. */
    std::vector<std::uint8_t> finish();

  private:
    std::vector<std::uint8_t> out;
    std::size_t payloadStart = 0; //!< offset of current section payload
    bool inSection = false;
    bool finished = false;
};

/**
 * Validating reader over a snapshot byte image. parse() checks magic,
 * versions, section framing and every CRC up front; all structural
 * failures are CorruptData. Field access is sticky-error: the first
 * failed take*()/check() records a Status and every later call becomes
 * a no-op returning zero values, so loaders read straight through and
 * test status() once (the .ltrc loader convention).
 */
class SnapshotReader
{
  public:
    /** Validate framing + CRCs of @p bytes; CorruptData on failure. */
    static Result<SnapshotReader> parse(std::vector<std::uint8_t> bytes);

    const SnapshotHeader &header() const { return head; }

    /** Enter the next section, which must carry @p tag (sticky). */
    void openSection(SnapSection tag);
    /** Leave the section; unconsumed payload bytes are an error. */
    void closeSection();

    std::uint8_t takeU8();
    std::uint32_t takeU32();
    std::uint64_t takeU64();
    double takeDouble();
    bool takeBool();
    std::string takeString();

    /** Record @p what as CorruptData unless @p cond holds. @return cond
     *  (false also when a prior error is already sticking). */
    bool check(bool cond, const char *what);
    /** Unconditionally record @p what as CorruptData. */
    void fail(const char *what);

    bool ok() const { return err.isOk(); }
    Status status() const { return err; }

    /** Final check: no sticky error and every section consumed. */
    Status finish() const;

  private:
    struct SectionRef
    {
        SnapSection tag;
        std::size_t begin; //!< payload offset into data
        std::size_t end;
    };

    bool has(std::size_t n);

    std::vector<std::uint8_t> data;
    SnapshotHeader head;
    std::vector<SectionRef> sections;
    std::size_t sectionIdx = 0; //!< next section to open
    std::size_t pos = 0;        //!< read cursor inside the open section
    std::size_t sectionEnd = 0;
    bool inSection = false;
    Status err;
};

/**
 * The section checksum of the container format: CRC-32 (IEEE 802.3,
 * reflected polynomial 0xEDB88320, initial value and final XOR
 * 0xFFFFFFFF) of @p len bytes at @p data, any alignment. Computed by
 * slicing-by-8 (eight bytes folded per step, a byte loop for the
 * tail); the value is the classic byte-at-a-time CRC's, so images
 * written by either load under both.
 */
std::uint32_t snapshotCrc32(const std::uint8_t *data, std::size_t len);

/** Deterministic identity of a scene: benchmark abbrev + resolution
 *  (scene synthesis is a pure function of these). */
std::uint64_t snapshotSceneHash(const std::string &abbrev,
                                std::uint32_t width,
                                std::uint32_t height);

/**
 * File name of a keyed snapshot-container file:
 * `<stem>_<cfg>_<scene>_f<framesDone>@<firstFrame>_v<codeVersion><ext>`.
 * The name is the whole key (the warm-prefix hash is not part of it),
 * so a directory of these needs no index and a lookup is one open.
 * Checkpoints (a run's key after framesDone frames) use stem `ckpt` and
 * extension `.lsnp`; result-cache entries use `res` and `.lrc`
 * (ResultCache::entryFileName).
 */
std::string keyedSnapshotFileName(const char *stem,
                                  const SnapshotHeader &key,
                                  const char *ext);

/**
 * Publish @p bytes at @p path atomically: write a temp file named
 * uniquely across processes (pid + sequence), then rename it over
 * @p path. Concurrent writers of one path race harmlessly (last rename
 * wins) and readers never see a half-written file. IoError on OS
 * failure, with the temp file removed.
 */
Status writeSnapshotFile(const std::string &path,
                         const std::vector<std::uint8_t> &bytes);

/** Read a snapshot byte image: NotFound when @p path does not exist,
 *  IoError on any other OS failure. */
Result<std::vector<std::uint8_t>>
readSnapshotFile(const std::string &path);

} // namespace libra

#endif // LIBRA_CHECK_SNAPSHOT_HH
