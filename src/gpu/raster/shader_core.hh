/**
 * @file
 * Multithreaded shader core executing fragment-shader warps.
 *
 * Each core keeps several warps (32 threads = 8 quads) resident and
 * single-issues among them: a warp runs its ALU block, issues its
 * texture samples to the core's private L1 Texture cache, blocks until
 * the data returns, runs a short tail (color export) and retires. Memory
 * latency is hidden exactly as far as other resident warps have issue
 * work — when every warp is blocked on textures the core idles, which is
 * how DRAM congestion becomes lost performance (paper Fig. 4 / Fig. 6).
 */

#ifndef LIBRA_GPU_RASTER_SHADER_CORE_HH
#define LIBRA_GPU_RASTER_SHADER_CORE_HH

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"

namespace libra
{

/** A warp's worth of fragment work, assembled by the Raster Unit. */
struct WarpTask
{
    TileId tile = 0;
    std::uint32_t quadCount = 0;   //!< quads packed into the warp
    std::uint32_t fragments = 0;   //!< covered fragments (color writes)
    std::uint16_t aluOps = 8;      //!< main ALU block, cycles per warp
    bool blend = false;
    std::vector<Addr> texLines;    //!< texture lines to sample
    std::uint64_t instructions = 0; //!< counted for the temperature table
};

/** Data handed back when a warp finishes shading (pre-blend). */
struct WarpRetireInfo
{
    TileId tile;
    Tick shadedAt;              //!< tick the tail block finished
    std::uint64_t instructions;
    std::uint64_t texRequests;
    std::uint64_t texLatencySum; //!< sum of per-request L1 latencies
    std::uint32_t quadCount;
    std::uint32_t fragments;
    bool blend;
};

/**
 * Retirement callback of one warp. 64 bytes of inline capture: enough
 * for the Raster Unit's retire continuation (owner, tile context, warp
 * identity and the moved-in quad vector) without any heap allocation —
 * a warp is dispatched for every ~8 quads of every primitive, so the
 * std::function this replaces allocated on a very hot path.
 */
using WarpRetireCallback = SmallCallback<void(const WarpRetireInfo &), 64>;

/** One shader core with a private L1 texture cache. */
class ShaderCore
{
  public:
    /** Cycles of tail work (attribute export etc.) per warp. */
    static constexpr Tick tailOps = 2;

    ShaderCore(EventQueue &eq, std::uint32_t warp_slots,
               Cache &texture_l1, const std::string &name);

    /** True when a new warp can become resident. */
    bool hasFreeSlot() const { return residentWarps < warpSlots; }

    std::uint32_t freeSlots() const { return warpSlots - residentWarps; }
    std::uint32_t resident() const { return residentWarps; }

    /**
     * Make @p task resident and start executing it. The task is copied
     * into the warp slot's own retained buffers, so the caller may
     * reuse @p task's storage. @p on_retire fires once, at the tick the
     * warp's shading completes; the slot is freed just before the
     * callback runs (blending happens downstream in the Raster Unit's
     * export queue and does not hold the slot), so the callback may
     * dispatch a new warp into this core.
     */
    void dispatch(const WarpTask &task, WarpRetireCallback on_retire);

    Cache &textureL1() { return texL1; }
    const Cache &textureL1() const { return texL1; }

    /** Issue cycles consumed — core utilization numerator. */
    std::uint64_t busyCycles() const { return issueBusy.value(); }

    /** Tick the issue port becomes free; the core is actively issuing
     *  (ALU/tail work) at any tick before this. */
    Tick issueBusyUntil() const { return issueReadyAt; }

    /**
     * Invoked whenever a resident warp changes execution state (enters
     * its texture-wait, resumes for the tail block). The owning Raster
     * Unit uses it to re-evaluate its phase attribution; may be empty.
     * Fires on every warp state transition, hence the allocation-free
     * callback type (the only producer captures one pointer).
     */
    SmallCallback<void(), 16> onStateChange;

    Counter warpsExecuted;
    Counter issueBusy;
    Counter texRequests;
    Counter texLatencySum;

    /**
     * Serialize persistent state (issue-port clock plus the four
     * counters above, which are not registered in any StatGroup) for a
     * frame-boundary snapshot. Asserts no warps are resident.
     */
    void saveState(SnapshotWriter &w) const;

    /** Restore what saveState() wrote. */
    void loadState(SnapshotReader &r);

  private:
    /** State of one in-flight warp: one per warp slot, pooled. Every
     *  event and texture callback of the warp captures only
     *  {this, Flight *} — trivially copyable, so the callbacks move as
     *  plain bytes and no reference count is touched. */
    struct Flight
    {
        WarpTask task; //!< texLines keeps its capacity across warps
        WarpRetireCallback onRetire;
        std::uint64_t outstanding = 0;
        Tick issueTick = 0; //!< tick the texture phase issued
        Tick lastData = 0;
        std::uint64_t latencySum = 0;
        WarpRetireInfo info{}; //!< filled by finishWarp, read at retire
    };

    /** Reserve @p cycles of the issue port; returns completion tick. */
    Tick reserveIssue(Tick earliest, Tick cycles);

    /** Issue every texture sample of @p flight to the L1. */
    void issueTexPhase(Flight *flight);

    /** One texture line returned at @p when. */
    void onTexData(Flight *flight, Tick when);

    /** Data complete at @p data_ready: run the tail block, schedule
     *  retirement. */
    void finishWarp(Flight *flight, Tick data_ready);

    /** Free the slot and fire the retire callback. */
    void retireWarp(Flight *flight);

    EventQueue &queue;
    std::uint32_t warpSlots;
    Cache &texL1;
    std::uint32_t residentWarps = 0;
    Tick issueReadyAt = 0;

    /** One Flight per warp slot, constructed on first use. Reserved to
     *  warpSlots at construction and never grown past it (at most
     *  warpSlots warps are resident), so a Flight never moves while
     *  events point at it. */
    std::vector<Flight> flights;
    std::vector<Flight *> freeFlights;
};

} // namespace libra

#endif // LIBRA_GPU_RASTER_SHADER_CORE_HH
