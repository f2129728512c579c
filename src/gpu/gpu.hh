/**
 * @file
 * The complete modeled GPU: geometry pipeline, tiling engine, one or
 * more Raster Units, the cache hierarchy and DRAM, the LIBRA tile
 * scheduler and the per-frame statistics plumbing (paper Fig. 3/Fig. 5).
 */

#ifndef LIBRA_GPU_GPU_HH
#define LIBRA_GPU_GPU_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/mem_system.hh"
#include "check/invariant_checker.hh"
#include "common/status.hh"
#include "core/temperature_table.hh"
#include "core/tile_scheduler.hh"
#include "dram/dram.hh"
#include "energy/energy_model.hh"
#include "gpu/geometry/geometry_pipeline.hh"
#include "gpu/gpu_config.hh"
#include "gpu/raster/raster_unit.hh"
#include "gpu/tiling/tile_fetcher.hh"
#include "gpu/tiling/tile_grid.hh"
#include "sim/event_queue.hh"
#include "sim/trace_sink.hh"
#include "workload/scene.hh"

namespace libra
{

class SnapshotWriter;
class SnapshotReader;

/** Everything measured while rendering one frame. */
struct FrameStats
{
    std::uint32_t frameIndex = 0;
    Tick totalCycles = 0;
    Tick geomCycles = 0;
    Tick rasterCycles = 0;

    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t dramActivates = 0;
    double avgDramReadLatency = 0.0;

    double textureHitRatio = 1.0;
    double avgTextureLatency = 0.0;
    std::uint64_t textureRequests = 0;
    std::uint64_t textureMisses = 0;
    std::uint64_t textureL1Accesses = 0; //!< texture-L1 hits + misses
    double l2HitRatio = 1.0;
    double replicationRatio = 0.0;

    std::uint64_t instructions = 0;
    std::uint64_t fragments = 0;
    std::uint64_t warps = 0;
    std::uint64_t quads = 0;

    /** Per-tile DRAM accesses / instructions (temperature inputs). */
    std::vector<std::uint64_t> tileDram;
    std::vector<std::uint64_t> tileInstr;

    /** DRAM requests per interval of the raster phase (Fig. 7). */
    std::vector<std::uint32_t> dramTimeline;
    std::uint32_t dramTimelineInterval = kDramTimelineInterval;

    /** Per-RU cycle attribution for this frame, indexed by RuPhase.
     *  The six phases of each unit sum exactly to totalCycles. */
    std::vector<std::array<std::uint64_t, kNumRuPhases>> ruPhases;

    EnergyBreakdown energy;

    /**
     * Scheduler decisions taken for this frame, copied verbatim from
     * the policy layer's FramePlan — the plan is rebuilt by value
     * every frame, so a policy that did no ranking reports
     * rankingCycles == 0 here by construction (no stale attribution).
     */
    bool temperatureOrder = false;
    std::uint32_t supertileSize = 1;
    std::uint64_t rankingCycles = 0;

    /** Rendering Elimination (only with renderingElimination): tiles
     *  skipped this frame, and which ones (1 = skipped). */
    std::uint64_t reTilesSkipped = 0;
    std::vector<std::uint8_t> reSkippedTiles;

    /** Final per-pixel hash image (only with captureImage). */
    std::vector<std::uint64_t> image;

    bool operator==(const FrameStats &) const = default;
};

class Gpu
{
  public:
    explicit Gpu(const GpuConfig &cfg);
    ~Gpu();

    Gpu(const Gpu &) = delete;
    Gpu &operator=(const Gpu &) = delete;

    /**
     * Render one frame; the pool must own every referenced texture.
     *
     * Library entry point with recoverable errors: if the frame
     * exceeds GpuConfig::watchdog limits, or the event loop deadlocks,
     * returns a WatchdogExpired / NoProgress Status whose message
     * carries a diagnostic dump (current tiles, RU occupancy,
     * outstanding memory requests). A wedged frame leaves simulated
     * state inconsistent, so after such an error every further call
     * fails with FailedPrecondition — callers rebuild the Gpu (see
     * runBenchmark, which skips the frame and continues the sweep).
     */
    Result<FrameStats> tryRenderFrame(const FrameData &frame,
                                      const TexturePool &pool);

    /**
     * Convenience wrapper over tryRenderFrame() that treats any failure
     * as a simulator bug (panic). With the watchdog disabled — the
     * default — this is exactly the historical behaviour.
     */
    FrameStats renderFrame(const FrameData &frame,
                           const TexturePool &pool);

    const GpuConfig &cfg() const { return config; }
    const TileGrid &tileGrid() const { return grid; }
    EventQueue &eventQueue() { return queue; }
    Dram &dram() { return *dramModel; }
    TileScheduler &scheduler() { return *tileSched; }

    /** Events executed by this simulation's event queue. */
    std::uint64_t eventsExecuted() const { return queue.eventsExecuted(); }

    /** Cumulative (run-lifetime) counters of every component. */
    const StatGroup &stats() const { return statGroup; }

    /**
     * Attach a trace sink (null to detach). The GPU creates one lane
     * per component ("gpu", "dram", "ru<N>") and emits frame/geometry/
     * raster spans, per-tile async spans and the DRAM-bandwidth counter
     * timeline into it. The sink must outlive the Gpu.
     */
    void setTraceSink(TraceSink *sink);

    /** True after a watchdog/deadlock error wedged this instance. */
    bool wedged() const { return isWedged; }

    /**
     * One-line-per-component snapshot of simulation state: tick, tiles
     * flushed, per-RU occupancy (current tile, FIFO fill, pending
     * warps), event-queue depth and outstanding DRAM requests. Dumped
     * into the error message when the watchdog fires.
     */
    std::string diagnosticState() const;

    /**
     * Test hook: the shared L2, for fault injection in the invariant
     * tests (e.g. Cache::testDropHitAccounting breaks the conservation
     * law that checkInvariants must then report).
     */
    Cache &testL2Cache() { return *l2; }

    /**
     * Serialize every piece of persistent cross-frame machine state —
     * the event-queue clock, cache tag arrays and port/LRU clocks,
     * DRAM bank/bus state, the replication tracker, the
     * adaptive-controller window, per-RU/core pacing state,
     * transaction-elimination signatures, frame feedback and the full
     * counter tree — as the machine sections of a
     * `libra.snapshot/1` image (src/check/snapshot.hh). Must be called
     * at a frame boundary: asserts full quiescence (queue drained,
     * RUs idle, MSHRs empty, not wedged).
     */
    void saveState(SnapshotWriter &w) const;

    /**
     * Restore what saveState() wrote onto a freshly constructed Gpu of
     * the *same* configuration (the caller checks configHash before
     * getting here). Returns CorruptData if the image disagrees with
     * this machine's shape; the Gpu must then be discarded.
     */
    Status loadState(SnapshotReader &r);

    EnergyParams energyParams; //!< tweakable before rendering

  private:
    struct RawTotals
    {
        std::uint64_t texHits = 0;      //!< includes coalesced requests
        std::uint64_t texMisses = 0;
        std::uint64_t texLatSum = 0;
        std::uint64_t texReqs = 0;
        std::uint64_t l1Accesses = 0;
        std::uint64_t l2Accesses = 0;
        std::uint64_t l2Hits = 0;
        std::uint64_t l2Misses = 0;
        std::uint64_t dramReads = 0;
        std::uint64_t dramWrites = 0;
        std::uint64_t dramActs = 0;
        std::uint64_t dramReadLatSum = 0;
        std::uint64_t quads = 0;
        std::uint64_t vertices = 0;
        std::uint64_t replInstalls = 0;
        std::uint64_t replReplicated = 0;
    };
    RawTotals collectTotals() const;

    GpuConfig config;
    TileGrid grid;
    EventQueue queue;

    std::unique_ptr<Dram> dramModel;
    std::unique_ptr<IdealMemory> idealSink; //!< idealMemory mode
    std::unique_ptr<Cache> l2;
    std::unique_ptr<Cache> vertexCache;
    std::unique_ptr<Cache> tileCache;
    std::vector<std::unique_ptr<Cache>> texL1s;
    ReplicationTracker replTracker;

    std::unique_ptr<GeometryPipeline> geometry;
    std::vector<std::unique_ptr<RasterUnit>> rus;
    std::unique_ptr<TileScheduler> tileSched;
    std::unique_ptr<TileFetcher> fetcher;

    TemperatureTable tempTable;
    FrameFeedback feedback;

    /** Runs the src/check conservation laws at every frame boundary
     *  when GpuConfig::checkInvariants is set. */
    InvariantChecker invariantChecker;

    /** Conservation laws over the finished frame; Ok or an
     *  InvariantViolation listing every broken law. */
    Status checkFrameInvariants(const FrameStats &fs);

    // Per-frame collection state.
    bool rasterActive = false;
    Tick rasterStartTick = 0;
    std::uint32_t tilesFlushed = 0;
    std::vector<std::uint32_t> tileFlushCount; //!< per-tile, this frame
    std::uint64_t frameAttributedDram = 0; //!< tile-tagged DRAM accesses
    IntervalSampler dramSampler; //!< Fig. 7 bandwidth timeline
    std::vector<std::uint64_t> tileInstr;
    std::vector<std::uint64_t> tileSignatures; //!< transaction elim.

    // Rendering Elimination (GpuConfig::renderingElimination). The
    // input-signature stage runs functionally right after binning; skip
    // decisions are taken at scheduler handout. The weak hash drives
    // the skip; the strong hash (different basis) only detects
    // weak-hash aliasing, counted as re.signature_collisions.
    std::vector<std::uint64_t> reWeakSig;   //!< previous frame, weak
    std::vector<std::uint64_t> reStrongSig; //!< previous frame, strong
    std::vector<std::uint8_t> reSkipTile;   //!< this frame's skip set
    bool reSigValid = false; //!< false until one frame is hashed
    std::vector<std::uint32_t> tileSkipCount; //!< per-tile, this frame
    std::uint64_t frameTilesSkipped = 0;
    Counter reTilesSkipped;
    Counter reSignatureCollisions;
    StatGroup reStats{"re"};

    /** Hash this frame's binned tile lists and decide the skip set. */
    void computeReSignatures(const BinnedFrame &binned);

    /** Coverage accounting for a tile discarded before rasterization. */
    void applyTileSkipped(TileId tile);

    std::vector<std::uint64_t> image;
    std::uint64_t frameInstructions = 0;
    std::uint64_t frameFragments = 0;
    std::uint64_t frameWarps = 0;
    std::uint32_t framesRendered = 0;
    bool isWedged = false; //!< a watchdog/deadlock error poisoned state

    /** Mark the GPU wedged and wrap @p st's message with diagnostics. */
    Status wedge(const Status &st, const char *phase);

    /** Frame accounting for one finished tile. */
    void applyTileDone(const TileDoneInfo &info);

    // Trace wiring (all null / zero when no sink is attached).
    TraceSink *traceSink = nullptr;
    TraceSink::Lane *gpuLane = nullptr;
    TraceSink::Lane *dramLane = nullptr;
    std::uint32_t nameFrame = 0;
    std::uint32_t nameGeometry = 0;
    std::uint32_t nameRaster = 0;
    std::uint32_t nameDramRequests = 0;

    StatGroup statGroup{"gpu"};
};

} // namespace libra

#endif // LIBRA_GPU_GPU_HH
