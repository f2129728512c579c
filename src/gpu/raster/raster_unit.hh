/**
 * @file
 * One Raster Unit: the private rasterization/shading slice of the GPU
 * that renders one tile at a time (paper Fig. 5).
 *
 * A Raster Unit owns a rasterizer front-end, an Early-Z stage with a
 * tile-sized Z-buffer, a set of multithreaded shader cores (each with a
 * private L1 texture cache), a blending unit with the on-chip Color
 * Buffer, and the flush DMA that writes finished tiles to the Frame
 * Buffer in DRAM. Parallel tile rendering instantiates several Raster
 * Units, each fed by its own FIFO of primitives (§III-A).
 *
 * Stage barriers follow the paper: a tile may be rasterized while the
 * previous tile is still in the Fragment stage (double-buffered Z and
 * Color buffers), but its warps only dispatch once the previous tile has
 * completely left the Fragment stage, blend commits are in program
 * order, and flushes serialize on the DMA engine. These barriers are
 * what keep small tiles from filling many cores (Fig. 4).
 */

#ifndef LIBRA_GPU_RASTER_RASTER_UNIT_HH
#define LIBRA_GPU_RASTER_RASTER_UNIT_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "gpu/raster/blend_unit.hh"
#include "gpu/raster/early_z.hh"
#include "gpu/raster/rasterizer.hh"
#include "gpu/raster/shader_core.hh"
#include "gpu/tiling/polygon_list_builder.hh"
#include "gpu/tiling/tile_grid.hh"
#include "sim/event_queue.hh"
#include "sim/trace_sink.hh"
#include "workload/texture.hh"

namespace libra
{

/**
 * Where a Raster Unit's cycles go (paper Fig. 1/Fig. 6 taxonomy). At
 * any tick the unit is attributed to exactly one phase, chosen by
 * priority: active shading hides everything beneath it, waits are only
 * charged when no core can issue, rasterization only when no warp is
 * resident, blend/flush only when the back-end is all that remains.
 */
enum class RuPhase : std::uint8_t
{
    Rasterize,   //!< front-end scanning / Early-Z busy
    Shade,       //!< at least one core actively issuing ALU/tail work
    TextureWait, //!< warps blocked on texture data, hits in flight
    DramWait,    //!< warps blocked with L1 misses outstanding below
    Blend,       //!< in-order blend commit / flush DMA wrapping up
    Idle         //!< nothing queued, nothing in flight
};

constexpr std::size_t kNumRuPhases = 6;

/** Lower-case stat/report name of a phase ("texture_wait", ...). */
const char *ruPhaseName(RuPhase phase);

/**
 * Wall-clock partition of one Raster Unit's time over the RuPhases.
 * transition() charges the span since the previous update to the
 * phase that was current; by construction the six counters always sum
 * to the total time covered, which is what lets a per-frame delta be
 * checked against the frame's cycle count exactly.
 */
class RuPhaseTracker
{
  public:
    /** Register the six counters ("phase_rasterize", ...) on @p g. */
    void registerStats(StatGroup &g);

    void
    transition(RuPhase next, Tick now)
    {
        counters[static_cast<std::size_t>(cur)] += now - last;
        last = now;
        cur = next;
    }

    /** Charge time up to @p now to the current phase (frame edges). */
    void sync(Tick now) { transition(cur, now); }

    RuPhase current() const { return cur; }

    std::uint64_t
    cycles(RuPhase phase) const
    {
        return counters[static_cast<std::size_t>(phase)].value();
    }

    /** All six counters in RuPhase declaration order. */
    std::array<std::uint64_t, kNumRuPhases>
    snapshot() const
    {
        std::array<std::uint64_t, kNumRuPhases> out{};
        for (std::size_t i = 0; i < kNumRuPhases; ++i)
            out[i] = counters[i].value();
        return out;
    }

    /** Tick of the last transition (snapshot save support; the six
     *  counters themselves are registered and restored via StatGroup). */
    Tick lastTransition() const { return last; }

    /** Reinstate the edge state saved by a snapshot. */
    void
    restore(RuPhase phase, Tick at)
    {
        cur = phase;
        last = at;
    }

  private:
    std::array<Counter, kNumRuPhases> counters;
    RuPhase cur = RuPhase::Idle;
    Tick last = 0;
};

/** One entry of a Raster Unit's input FIFO. */
struct RasterWork
{
    enum class Kind
    {
        TileBegin,
        Prim,
        TileEnd
    };

    Kind kind = Kind::Prim;
    TileId tile = 0;
    std::uint32_t primIndex = 0; //!< index into the binned frame
};

/**
 * Consumer interface of the Tile Fetcher: a Raster Unit's input FIFO.
 * Extracted so the fetcher can be unit-tested against a mock consumer.
 */
class RasterSink
{
  public:
    virtual ~RasterSink() = default;

    /** True when the FIFO can accept one more entry. */
    virtual bool canPush() const = 0;

    /** Push one entry; only legal when canPush(). */
    virtual void push(const RasterWork &work) = 0;

    /** Invoked by the consumer whenever FIFO space frees up. */
    std::function<void()> onSpaceFreed;
};

/**
 * Frame-independent content hash of a primitive: identical geometry
 * with identical state hashes identically even when its index in the
 * frame's triangle list changes. Shared identity basis of the two
 * redundancy-elimination mechanisms: transaction elimination hashes a
 * tile's *rendered* quads with it, Rendering Elimination hashes a
 * tile's *binned* list with it (Gpu's input-signature stage).
 */
std::uint64_t primContentHash(const Triangle &tri);

/** Per-tile result reported when a tile's flush completes. */
struct TileDoneInfo
{
    TileId tile = 0;
    Tick flushedAt = 0;
    std::uint64_t instructions = 0;
    std::uint64_t warps = 0;
    std::uint64_t fragments = 0;
    std::uint64_t signature = 0; //!< content hash (transaction elim.)
    bool flushElided = false;    //!< write skipped: content unchanged
    const std::vector<std::uint64_t> *colorBuffer = nullptr;
    IRect rect;
};

/** Raster Unit configuration slice. */
struct RasterUnitConfig
{
    std::uint32_t index = 0;
    std::uint32_t tileSize = 32;
    std::uint32_t cores = 4;
    std::uint32_t warpsPerCore = 12;
    std::uint32_t warpQuads = 8;
    std::uint32_t pendingWarpsPerCore = 4;
    std::uint32_t rasterQuadsPerCycle = 4;
    std::uint32_t earlyZQuadsPerCycle = 4;
    std::uint32_t blendQuadsPerCycle = 4;
    std::uint32_t flushLinesPerCycle = 1;
    std::uint32_t fifoDepth = 64;
    bool captureImage = false;

    /**
     * Extensions beyond the paper's baseline TBR model (both default
     * off so the reproduction matches the paper):
     *
     * - transactionElimination: skip the frame-buffer flush when the
     *   tile's content signature matches the previous frame's (ARM
     *   Transaction Elimination).
     * - fbCompressionRatio: fraction of the color buffer actually
     *   written on flush (ARM AFBC-style framebuffer compression);
     *   1.0 = uncompressed.
     */
    bool transactionElimination = false;
    double fbCompressionRatio = 1.0;
};

class RasterUnit : public RasterSink
{
  public:
    /**
     * @param texture_l1s one private L1 per core, owned by the caller
     *        (they connect to the shared L2).
     */
    RasterUnit(EventQueue &eq, const RasterUnitConfig &cfg,
               const TileGrid &tile_grid, MemSink &frame_buffer_sink,
               std::vector<Cache *> texture_l1s);

    /** Arm the unit for a frame (must be idle). */
    void beginFrame(const BinnedFrame &binned, const TexturePool &pool);

    // --- FIFO interface used by the Tile Fetcher (RasterSink) ----------
    bool canPush() const override
    {
        return fifo.size() < config.fifoDepth;
    }
    void push(const RasterWork &work) override;

    /** Invoked when a tile has been flushed to the Frame Buffer. */
    std::function<void(const TileDoneInfo &)> onTileDone;

    /** True when no tile is in flight and the FIFO is empty. */
    bool idle() const;

    // --- Watchdog diagnostics ------------------------------------------
    /** Entries currently queued in the input FIFO. */
    std::size_t fifoEntries() const { return fifo.size(); }

    /** Tile owning the Fragment stage (invalidId when none). */
    TileId currentTile() const { return frag ? frag->tile : invalidId; }

    /** Tile being rasterized ahead (invalidId when none). */
    TileId aheadTile() const { return ahead ? ahead->tile : invalidId; }

    /** Warps assembled but not yet dispatched to a core. */
    std::size_t pendingWarpCount() const { return pendingWarps.size(); }

    const RasterUnitConfig &cfg() const { return config; }
    ShaderCore &core(std::uint32_t i) { return *cores[i]; }
    std::uint32_t coreCount() const
    {
        return static_cast<std::uint32_t>(cores.size());
    }

    // Statistics.
    Counter primsRasterized;
    Counter quadsProduced;   //!< quads surviving Early-Z
    Counter warpsLaunched;
    Counter tilesRendered;
    Counter flushBytes;
    Counter texLatencySum;   //!< summed L1-to-data latencies
    Counter texRequests;
    Counter fragmentsShaded;
    Counter flushesElided; //!< tiles whose FB write was eliminated

    /**
     * Transaction-elimination hook, installed by the GPU: returns true
     * when @p signature differs from the tile's previous-frame content
     * (i.e. the flush must happen) and records the new signature.
     */
    std::function<bool(TileId, std::uint64_t)> flushNeeded;

    StatGroup &stats() { return statGroup; }

    // --- Observability --------------------------------------------------
    /** Cycle attribution over the RuPhases (always on; the counters
     *  are registered under this unit's stat group). */
    const RuPhaseTracker &phases() const { return phaseTracker; }

    /** Charge time up to @p now to the current phase. The GPU calls
     *  this at frame boundaries so per-frame deltas partition the
     *  frame exactly. */
    void syncPhase(Tick now) { phaseTracker.sync(now); }

    /**
     * Serialize persistent state (dispatch rotation, front/flush
     * clocks, phase-tracker edge, per-core state) for a frame-boundary
     * snapshot. Asserts the unit is idle; registered counters are
     * restored separately via the StatGroup.
     */
    void saveState(SnapshotWriter &w) const;

    /** Restore what saveState() wrote. */
    void loadState(SnapshotReader &r);

    /**
     * Attach a chrome-trace lane: every tile's residency in this unit
     * is emitted as an async span (tiles overlap — the run-ahead tile
     * rasterizes while the previous one shades). @p tile_name_id must
     * come from the same TraceSink's nameId().
     */
    void
    setTraceLane(TraceSink::Lane *lane, std::uint32_t tile_name_id)
    {
        traceLane = lane;
        traceTileName = tile_name_id;
    }

  private:
    /** All state for one tile being processed. */
    struct TileCtx
    {
        TileCtx(std::uint32_t tile_size, std::uint32_t blend_rate)
            : zbuf(tile_size), blender(tile_size, blend_rate)
        {}

        TileId tile = 0;
        IRect rect;
        bool endSeen = false;
        bool completing = false;      //!< completion event scheduled
        std::uint32_t nextSeq = 0;    //!< warps assembled so far
        std::uint32_t nextCommit = 0; //!< warps blended so far
        std::uint64_t instructions = 0;
        std::uint64_t fragments = 0;
        std::uint64_t warps = 0;
        std::uint64_t signature = 0; //!< order-sensitive content hash
        Tick lastBlendDone = 0;
        EarlyZ zbuf;
        BlendUnit blender;

        /** Retired warps waiting for in-order blend commit. */
        struct RetiredWarp
        {
            WarpRetireInfo info;
            std::vector<Quad> quads;
            std::uint32_t primId;
            std::uint64_t primSig;
        };
        /** Reorder window: entry i holds warp nextCommit + i once it
         *  has retired; the front commits as soon as it is filled. */
        std::deque<std::optional<RetiredWarp>> retired;
    };

    /** A warp assembled but not yet dispatched to a core. */
    struct PendingWarp
    {
        TileCtx *ctx;
        std::uint32_t seq;
        std::uint32_t primId;
        std::uint64_t primSig; //!< content hash (frame-independent)
        WarpTask task;
        std::vector<Quad> quads;
    };

    /** The phase the unit is in at @p now (see RuPhase priorities). */
    RuPhase phaseNow(Tick now) const;

    /** Re-evaluate and charge the phase attribution at queue.now(). */
    void updatePhase();

    void tryAdvance();
    void processWork(const RasterWork &work);
    void rasterizePrim(std::uint32_t prim_index);
    void emitWarp(TileCtx &ctx, const Triangle &tri,
                  std::uint32_t prim_index, std::vector<Quad> quads);
    void dispatchPending();
    void onWarpRetired(TileCtx *ctx, std::uint32_t seq,
                       std::uint32_t prim_id, std::uint64_t prim_sig,
                       std::vector<Quad> quads,
                       const WarpRetireInfo &info);
    void commitReadyWarps(TileCtx &ctx);
    void maybeCompleteTile();
    void startFlush();

    /** Tile ctx the rasterizer front currently fills. */
    TileCtx *rasterCtx() { return ahead ? ahead.get() : frag.get(); }

    EventQueue &queue;
    RasterUnitConfig config;
    const TileGrid &grid;
    MemSink &fbSink;

    std::vector<std::unique_ptr<ShaderCore>> cores;
    std::uint32_t nextCore = 0;

    const BinnedFrame *frame = nullptr;
    const TexturePool *texPool = nullptr;

    /** Per-frame memoization of TriangleSetup, indexed by primitive.
     *  Setup is a pure function of the triangle and its texture, and a
     *  primitive binned into many tiles is rasterized once per tile —
     *  the setup (winding, edges, gradients, a sqrt for the LOD) only
     *  needs computing the first time. Reset by beginFrame(). */
    std::vector<std::optional<TriangleSetup>> setupCache;

    /** Scratch for rasterizePrim, reused across primitives so the
     *  steady state performs no allocation. Only live within one
     *  rasterizePrim call (never across events). */
    RasterOutput rasterScratch;
    std::vector<Quad> survivorScratch;

    /** Emptied warp buffers kept for reuse, so assembling a warp does
     *  not allocate in the steady state: a quad group returns here
     *  when its warp's blend commits, a texture-line list as soon as
     *  its warp is dispatched (the core copies the lines). */
    std::vector<std::vector<Quad>> quadBuffers;
    std::vector<std::vector<Addr>> texLineBuffers;

    std::deque<RasterWork> fifo;
    Tick frontReadyAt = 0;
    bool advanceScheduled = false;
    bool inAdvance = false;

    std::unique_ptr<TileCtx> frag;  //!< tile owning the Fragment stage
    std::unique_ptr<TileCtx> ahead; //!< tile being rasterized ahead

    std::deque<PendingWarp> pendingWarps;
    std::uint32_t maxPendingWarps;

    Tick flushReadyAt = 0;

    RuPhaseTracker phaseTracker;
    TraceSink::Lane *traceLane = nullptr;
    std::uint32_t traceTileName = 0;

    StatGroup statGroup;
};

} // namespace libra

#endif // LIBRA_GPU_RASTER_RASTER_UNIT_HH
