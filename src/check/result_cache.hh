/**
 * @file
 * Persistent on-disk cache of finished simulation reports (the sim-farm
 * memoization layer, ROADMAP item 2).
 *
 * An entry maps a ResultCacheKey — (config hash, scene hash, code
 * version, frame range) — to the exact `libra.run_report/1` JSON bytes
 * the simulation produced. The simulator is deterministic and reports
 * are byte-identical across runs (the determinism goldens pin this), so
 * an identical request can be served from the cache byte-for-byte
 * instead of re-simulated.
 *
 * Entries reuse the snapshot container (src/check/snapshot.hh): magic,
 * format version, the keyed SnapshotHeader, and one CRC32-framed
 * CachedReport section holding the report string. That buys the same
 * corruption story as snapshots for free: a truncated or bit-flipped
 * entry is a recoverable CorruptData at parse/CRC, a key or code-version
 * mismatch is FailedPrecondition at lookup — both degrade to a cache
 * miss (the farm warns and re-simulates), never to serving wrong bytes.
 *
 * Versioning: kResultCacheCodeVersion must be bumped whenever simulator
 * outputs change meaning — a model change, a report-schema change, or a
 * change to the hash functions feeding the key (GpuConfig::configHash,
 * snapshotSceneHash, hashCombine in common/rng.hh) — so stale entries
 * are refused rather than mis-served.
 *
 * Concurrency: store() publishes through writeSnapshotFile (a temp file
 * unique across processes, then an atomic rename), so concurrent
 * writers of the same key race harmlessly (last rename wins, both
 * images are valid and identical) and readers never observe a
 * half-written entry.
 */

#ifndef LIBRA_CHECK_RESULT_CACHE_HH
#define LIBRA_CHECK_RESULT_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hh"

namespace libra
{

/**
 * Serialized-report version of the result cache. Bump whenever a cached
 * report could go stale against the current code: simulator model
 * changes, report schema changes, or key-hash (mixer) changes.
 */
constexpr std::uint32_t kResultCacheCodeVersion = 4;
// v2: configHash() chain gained renderingElimination; reports may
//     carry re.* counters.
// v3: configHash() chain lost the removed sharded-engine flag.
// v4: the report's "scheduler" member is the registry name
//     (policyNameFor), so RE runs say "re"/"re-libra".

/** Identity of one cacheable simulation request. */
struct ResultCacheKey
{
    std::uint64_t configHash = 0; //!< GpuConfig::configHash()
    std::uint64_t sceneHash = 0;  //!< snapshotSceneHash(bench, w, h)
    std::uint32_t codeVersion = kResultCacheCodeVersion;
    std::uint32_t frames = 0;     //!< frames rendered
    std::uint32_t firstFrame = 0; //!< absolute first frame

    /** Canonical text form, e.g.
     *  "cfg:0123456789abcdef:scene:fedcba9876543210:f4@0:v1" — used as
     *  the farm's dedup/journal key and in log attribution. */
    std::string toString() const;

    bool
    operator==(const ResultCacheKey &o) const
    {
        return configHash == o.configHash && sceneHash == o.sceneHash
            && codeVersion == o.codeVersion && frames == o.frames
            && firstFrame == o.firstFrame;
    }
};

/**
 * Directory-backed result cache. One file per entry
 * (`res_<cfg>_<scene>_f<N>@<F>_v<V>.lrc`, keyedSnapshotFileName): the
 * key fully determines the file name, so lookup is a single open.
 */
class ResultCache
{
  public:
    /** Bind to @p dir, creating it (IoError if that fails). */
    static Result<ResultCache> open(const std::string &dir);

    ResultCache() = default;

    const std::string &dir() const { return dirPath; }

    /** Entry file name for @p key (relative to the cache dir). */
    static std::string entryFileName(const ResultCacheKey &key);

    /**
     * The cached report for @p key. NotFound on a plain miss;
     * CorruptData for a damaged entry and FailedPrecondition for an
     * entry whose header does not match the key (both are "unusable:
     * warn and re-simulate" to callers, per the snapshot convention).
     */
    Result<std::string> lookup(const ResultCacheKey &key) const;

    /** Persist @p report_json under @p key (temp file + rename). */
    Status store(const ResultCacheKey &key,
                 const std::string &report_json);

    /** Whether a usable entry for @p key exists (lookup().isOk()). */
    bool contains(const ResultCacheKey &key) const;

    /** Entry files currently present (any validity), sorted by name —
     *  deterministic, for tests and eviction. */
    Result<std::vector<std::string>> entries() const;

    /**
     * Evict oldest entries (by file modification time, ties broken by
     * name) until at most @p max_entries remain — trim(0) empties the
     * cache. Returns the number removed. The farm calls this after
     * every store when FarmOptions::cacheMaxEntries is nonzero (its 0
     * means "unbounded", enforced there, not here).
     */
    Result<std::uint64_t> trim(std::uint64_t max_entries);

  private:
    explicit ResultCache(std::string dir) : dirPath(std::move(dir)) {}

    std::string dirPath;
};

/** Serialize/parse one cache entry image (exposed for tests). */
std::vector<std::uint8_t>
buildResultCacheEntry(const ResultCacheKey &key,
                      const std::string &report_json);
Result<std::string>
parseResultCacheEntry(const ResultCacheKey &key,
                      std::vector<std::uint8_t> bytes);

} // namespace libra

#endif // LIBRA_CHECK_RESULT_CACHE_HH
