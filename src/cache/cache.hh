/**
 * @file
 * Set-associative, non-blocking, write-back timing cache.
 *
 * Used for all four cache types of the modeled TBR GPU (Table I): the
 * Vertex cache, the Tile cache, the per-core L1 Texture caches and the
 * shared L2. The model is timing-only (tags + LRU state, no data): on a
 * miss it allocates an MSHR, forwards a line fill to the next MemSink and
 * completes all coalesced requesters when the fill returns. Dirty
 * evictions post write-backs downstream.
 *
 * Sharing discipline: texture and geometry data are read-only and writes
 * from different producers target disjoint lines (parameter buffer,
 * frame buffer), so no coherence protocol is modeled — matching the
 * simple L1/L2 organization of mobile TBR GPUs the paper assumes.
 */

#ifndef LIBRA_CACHE_CACHE_HH
#define LIBRA_CACHE_CACHE_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "cache/mem_system.hh"
#include "common/open_addr_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"

namespace libra
{

class SnapshotWriter;
class SnapshotReader;

/** Geometry and timing of one cache. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t ways = 4;
    std::uint32_t lineBytes = 64;
    Tick hitLatency = 2;
    std::uint32_t mshrs = 16;          //!< distinct outstanding misses
    std::uint32_t portsPerCycle = 1;   //!< accesses accepted per cycle
    bool writeAllocate = true;
    bool alwaysHit = false; //!< ideal-memory mode (Fig. 6a methodology)
};

/** One level of the cache hierarchy. */
class Cache : public MemSink
{
  public:
    Cache(EventQueue &eq, const CacheConfig &cfg, MemSink &next_level);

    void access(MemReq req) override;

    /** Drop every line (used between frames for the Tile cache, whose
     *  backing parameter buffer is rewritten by the next binning pass).
     *  Dirty lines are written back. Outstanding MSHR fills are marked
     *  stale: when such a fill returns it completes its waiters with the
     *  correct timing but does NOT install the line, so pre-invalidate
     *  data can never reappear as a post-invalidate hit. */
    void invalidateAll();

    /** Fraction of accesses that hit since construction (or reset). */
    double hitRatio() const;

    /** Distinct line fills currently in flight (occupied MSHRs). Used
     *  by the Raster-Unit phase attribution to distinguish waiting on
     *  a short L1 hit from waiting on the memory system. */
    std::size_t outstandingMisses() const { return mshrIndex.size(); }

    const CacheConfig &cfg() const { return config; }
    const StatGroup &stats() const { return statGroup; }
    StatGroup &stats() { return statGroup; }

    /**
     * Serialize persistent state (tags/LRU/ports/fill sequence) for a
     * frame-boundary snapshot. Only legal while quiescent: occupied
     * MSHRs or stalled requests imply pending events and are asserted
     * against. Counters are restored separately via the StatGroup.
     */
    void saveState(SnapshotWriter &w) const;

    /** Restore what saveState() wrote (geometry must match). */
    void loadState(SnapshotReader &r);

    /** Replication observer told of every install and eviction; set
     *  by ReplicationTracker::attach(), null when untracked. */
    ReplicationTracker *replication = nullptr;

    // Statistics.
    Counter hits;
    Counter misses;
    Counter mshrCoalesced;  //!< miss merged into an in-flight fill
    Counter mshrStalls;     //!< requests that waited for a free MSHR
    Counter writebacks;
    Counter readAccesses;
    Counter writeAccesses;
    Counter invalidatedFills; //!< fills discarded by invalidateAll()

    /**
     * Test hook: when set, hit accesses are serviced normally but the
     * `hits` counter is not incremented — an injected accounting bug
     * that the InvariantChecker's conservation law must catch.
     */
    bool testDropHitAccounting = false;

    /**
     * Fault-injection hook (armed by Gpu from a FaultPlan; see
     * src/check/fault_injector): every Nth returning fill is discarded
     * exactly as if it had crossed an invalidateAll() — waiters keep
     * their timing, the line is not installed, `invalidatedFills` is
     * incremented (no new counter, so golden counter dumps keep their
     * shape). 0 disables.
     */
    std::uint64_t testDropFillEvery = 0;

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lruStamp = 0;
    };

    struct Mshr
    {
        Addr lineAddr;
        bool anyWrite = false;
        bool discardFill = false; //!< invalidated while in flight
        std::vector<MemCallback> waiters;
    };

    Addr lineAddr(Addr addr) const { return addr & ~(Addr(config.lineBytes) - 1); }

    /** Shared implementation; retried requests skip the counters.
     *  Takes @p req by reference so its callback moves only into the
     *  completion event, MSHR waiter list or stall queue. */
    void accessImpl(MemReq &req, bool is_retry);
    std::size_t setIndex(Addr line_addr) const;

    /** Probe the set; returns way index or -1. */
    int findLine(Addr line_addr);

    /** Choose a victim way in the set of @p line_addr (LRU). */
    std::uint32_t victimWay(std::size_t set);

    /** Install @p line_addr, evicting as needed. */
    void installLine(Addr line_addr, bool dirty);

    /** Port arbitration: first tick this access can start. */
    Tick arbitratePort();

    /** Start a fill for the MSHR at @p index. */
    void issueFill(std::size_t index);

    /** Fill returned: install, drain waiters, retry stalled requests. */
    void handleFill(Addr line_addr, Tick when);

    EventQueue &queue;
    CacheConfig config;
    MemSink &next;

    std::uint32_t numSets;   //!< a power of two
    std::uint32_t lineShift; //!< log2(lineBytes)
    std::vector<Line> lines;   //!< numSets * ways, set-major
    std::uint64_t lruClock = 0;

    /** lineAddr → MSHR slot. Open-addressed: MSHR matching runs on
     *  every miss and every fill return, and the node-based
     *  unordered_map it replaces was a measurable slice of the whole
     *  simulator under gprof. */
    OpenAddrMap<std::uint32_t> mshrIndex;
    std::vector<Mshr> mshrSlots;
    std::vector<TrafficClass> mshrCls; //!< class of the triggering miss
    std::vector<std::uint32_t> mshrTag; //!< tile tag of the triggering miss
    std::vector<std::size_t> freeMshrs;
    std::deque<MemReq> stalledReqs; //!< waiting for an MSHR

    Tick portTick = 0;
    std::uint32_t portCount = 0;
    std::uint64_t fillSeq = 0; //!< fills returned, for testDropFillEvery

    StatGroup statGroup;
};

} // namespace libra

#endif // LIBRA_CACHE_CACHE_HH
