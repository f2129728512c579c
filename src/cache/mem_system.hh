/**
 * @file
 * Common memory-request plumbing shared by caches and DRAM.
 *
 * Every level of the hierarchy implements MemSink: it accepts a MemReq
 * and promises to invoke the request's completion callback at the tick
 * the data is available (reads) or accepted (writes). Requests carry a
 * TrafficClass for routing/statistics and a tile tag so DRAM traffic can
 * be attributed to the screen tile that caused it — the raw signal the
 * LIBRA temperature table (paper §III-B) is built from.
 */

#ifndef LIBRA_CACHE_MEM_SYSTEM_HH
#define LIBRA_CACHE_MEM_SYSTEM_HH

#include <cstdint>
#include <memory>

#include "common/open_addr_map.hh"
#include "common/types.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"

namespace libra
{

/**
 * Physical address map of the modeled GPU. Regions are disjoint and far
 * apart so the workload generator can lay out textures, geometry, the
 * parameter buffer and the frame buffer without collisions.
 */
namespace addr_map
{

constexpr Addr vertexBase = 0x1000'0000ull;        //!< scene geometry
constexpr Addr parameterBufferBase = 0x2000'0000ull; //!< per-tile lists
constexpr Addr textureBase = 0x4000'0000ull;       //!< texture pool
constexpr Addr frameBufferBase = 0x8000'0000ull;   //!< final image

} // namespace addr_map

/**
 * Completion callback; argument is the completion tick. Move-only and
 * allocation-free: 24 bytes of inline capture — enough for every
 * producer in the tree, and small enough that the cache/DRAM completion
 * wraps (callback + completion tick) still fit inside an EventCallback.
 * The hottest producer, a shader core's texture request, captures
 * {core, Flight *}: trivially copyable, so it moves as plain bytes.
 */
using MemCallback = SmallCallback<void(Tick), 24>;

/** A memory request traveling down the hierarchy. */
struct MemReq
{
    Addr addr = 0;
    std::uint32_t size = 64;         //!< bytes; one cache line by default
    bool write = false;
    TrafficClass cls = TrafficClass::Texture;
    std::uint32_t tileTag = invalidId; //!< originating screen tile
    MemCallback onComplete;            //!< may be empty for posted writes
};

/**
 * Fan-in state for requests split into multiple line-sized parts: the
 * original callback fires once, when the last part completes, with the
 * latest completion tick. One shared block per split request keeps the
 * per-part capture to a single shared_ptr.
 */
struct SplitJoin
{
    SplitJoin(std::size_t count, MemCallback callback)
        : remaining(count), cb(std::move(callback))
    {}

    std::size_t remaining;
    Tick latest = 0;
    MemCallback cb;
};

/** Completion callback for one part of a split request. */
inline MemCallback
splitJoinPart(const std::shared_ptr<SplitJoin> &join)
{
    return [join](Tick when) {
        if (when > join->latest)
            join->latest = when;
        if (--join->remaining == 0 && join->cb)
            join->cb(join->latest);
    };
}

/** Anything that can accept memory requests. */
class MemSink
{
  public:
    virtual ~MemSink() = default;

    /** Accept a request at the current tick. */
    virtual void access(MemReq req) = 0;
};

/**
 * Fixed-latency, infinite-bandwidth memory. With latency zero it builds
 * the "ideal memory" configuration behind Figure 6a (every access
 * completes instantly); it also serves as a test double for the caches.
 */
class IdealMemory : public MemSink
{
  public:
    IdealMemory(EventQueue &eq, Tick latency = 0)
        : queue(eq), lat(latency)
    {}

    void
    access(MemReq req) override
    {
        ++accesses;
        if (req.write)
            ++writes;
        if (!req.onComplete)
            return;
        if (lat == 0) {
            req.onComplete(queue.now());
        } else {
            const Tick done = queue.now() + lat;
            queue.schedule(done, [cb = std::move(req.onComplete),
                                  done]() mutable { cb(done); });
        }
    }

    std::uint64_t accesses = 0;
    std::uint64_t writes = 0;

  private:
    EventQueue &queue;
    Tick lat;
};

class Cache;
class SnapshotWriter;
class SnapshotReader;

/**
 * Tracks line replication across a group of sibling caches (the per-core
 * L1 texture caches of one or more Raster Units). A line installed while
 * already resident in another sibling is a replicated install: the same
 * 64 bytes occupy multiple L1s and the aggregate effective capacity
 * shrinks. The paper reports LIBRA's supertile scheduling cuts this
 * replication by 32.5% versus PTR alone (§V-A.3).
 */
class ReplicationTracker
{
  public:
    /** Make this tracker @p cache's replication observer. */
    void attach(Cache &cache);

    /** A sibling installed @p line (called by the attached Cache). */
    void recordInstall(Addr line);

    /** A sibling evicted @p line (called by the attached Cache). */
    void recordEvict(Addr line);

    std::uint64_t installs() const { return totalInstalls; }
    std::uint64_t replicatedInstalls() const { return replicated; }

    /**
     * Serialize counters and the live refcount table for a
     * frame-boundary snapshot. Entries are emitted sorted by line
     * address so the byte image is independent of hash-table layout.
     */
    void exportState(SnapshotWriter &w) const;

    /** Restore what exportState() wrote into this (fresh) tracker. */
    void importState(SnapshotReader &r);

  private:
    /** Sized for a texture-heavy L1 working set; grows if exceeded. The
     *  install/evict calls run on every L1 line turn-over, so this map
     *  shares the open-addressed design of the MSHR index. */
    OpenAddrMap<std::uint32_t> refCount{4096};
    std::uint64_t totalInstalls = 0;
    std::uint64_t replicated = 0;
};

} // namespace libra

#endif // LIBRA_CACHE_MEM_SYSTEM_HH
