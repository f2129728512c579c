/**
 * @file
 * Full configuration of the modeled TBR GPU.
 *
 * Defaults follow Table I of the paper: 800 MHz, FHD screen, 32x32-pixel
 * tiles, the listed cache geometry, LPDDR4 main memory, and either the
 * baseline organization (one Raster Unit, eight shader cores) or the
 * LIBRA organization (two Raster Units of four cores each).
 */

#ifndef LIBRA_GPU_GPU_CONFIG_HH
#define LIBRA_GPU_GPU_CONFIG_HH

#include <cstdint>
#include <memory>
#include <string>

#include "cache/cache.hh"
#include "common/status.hh"
#include "core/scheduler_config.hh"
#include "dram/dram.hh"
#include "sim/watchdog.hh"

namespace libra
{

class FaultInjector;

/** Ticks per DRAM-bandwidth timeline bucket (Fig. 7 sampling). */
constexpr std::uint32_t kDramTimelineInterval = 5000;

/** Complete GPU configuration. */
struct GpuConfig
{
    // --- Global (Table I) ---------------------------------------------
    std::uint32_t screenWidth = 1920;
    std::uint32_t screenHeight = 1080;
    std::uint32_t tileSize = 32; //!< pixels per tile side

    // --- Parallel tile rendering --------------------------------------
    std::uint32_t rasterUnits = 1;
    std::uint32_t coresPerRu = 8;

    // --- Shader cores ---------------------------------------------------
    std::uint32_t warpsPerCore = 12;   //!< resident warp slots
    std::uint32_t warpQuads = 8;       //!< 8 quads = 32 threads per warp
    std::uint32_t pendingWarpsPerCore = 4; //!< assembled, awaiting a slot

    // --- Fixed-function throughput (per Raster Unit, per cycle) --------
    std::uint32_t rasterQuadsPerCycle = 4;
    std::uint32_t earlyZQuadsPerCycle = 4;
    std::uint32_t blendQuadsPerCycle = 4;
    std::uint32_t flushLinesPerCycle = 1; //!< color-buffer DMA

    // --- Geometry pipeline ---------------------------------------------
    std::uint32_t vertexProcessors = 2;
    std::uint32_t binTilesPerCycle = 2; //!< list entries written per cycle

    // --- Tiling engine --------------------------------------------------
    std::uint32_t fifoDepth = 64;   //!< primitives per RU input FIFO
    std::uint32_t listEntryBytes = 16;
    std::uint32_t primRecordBytes = 64;

    // --- Memory hierarchy (Table I) -------------------------------------
    CacheConfig vertexCache{"vertex_cache", 4 * 1024, 2, 64, 1, 8, 1, true};
    CacheConfig tileCache{"tile_cache", 32 * 1024, 4, 64, 2, 16, 2, true};
    CacheConfig textureCache{"texture_cache", 32 * 1024, 4, 64, 2, 32, 2,
                             true};
    CacheConfig l2{"l2", 2 * 1024 * 1024, 8, 64, 18, 64, 4, true};
    DramConfig dram;
    bool idealMemory = false; //!< all accesses complete in L1 (Fig. 6a)

    // --- Scheduling ------------------------------------------------------
    SchedulerConfig sched;

    // --- TBR extensions (off by default: the paper's baseline) ----------
    bool transactionElimination = false; //!< skip unchanged-tile flushes
    double fbCompressionRatio = 1.0;     //!< AFBC-style flush compression

    /**
     * Rendering Elimination (Anglada et al., policy "re"): hash each
     * tile's binned-primitive content after binning and skip the whole
     * raster pipeline — fetch, shading, flush — for tiles whose input
     * signature matches the previous frame (the framebuffer already
     * holds the right pixels). Composes with any scheduling policy;
     * counters land under "re.*". Contrast transactionElimination,
     * which renders everything and elides only the flush based on the
     * *output* signature.
     */
    bool renderingElimination = false;

    // --- Instrumentation -------------------------------------------------
    bool captureImage = false; //!< keep a per-pixel hash "image"
    bool traceEvents = false;  //!< record a chrome-trace event timeline

    // --- Robustness ------------------------------------------------------
    /** Per-frame watchdog limits (both triggers off by default). */
    WatchdogConfig watchdog;

    /**
     * Run the InvariantChecker (src/check) at every frame boundary:
     * cache-counter conservation, per-tile DRAM attribution, exactly-
     * once tile scheduling, RU phase partition and the energy-component
     * sum. A violated law surfaces as an InvariantViolation Status from
     * tryRenderFrame — a recoverable error, never an abort — so CI and
     * the config fuzzer can turn model-accounting bugs into red tests.
     * Off by default: release runs pay no checking cost.
     */
    bool checkInvariants = false;

    /**
     * Armed fault injector (src/check/fault_injector), set per job
     * attempt by SweepRunner when a FaultPlan is in force; null in
     * normal runs. Like the watchdog's deadline this is a runtime
     * attachment, not a property of the simulated machine, so it is
     * excluded from configHash().
     */
    std::shared_ptr<FaultInjector> faults;

    /**
     * Stable 64-bit hash of every *model* field — everything that can
     * change a simulation's counters, and nothing that can't (runtime
     * attachments: watchdog limits and deadline, fault injector,
     * instrumentation toggles are all excluded). Used as the journal /
     * result-cache key (ROADMAP item 2) and to attribute farm-log
     * failures to a config; identical configs hash identically across
     * processes and runs.
     */
    std::uint64_t configHash() const;

    /**
     * configHash() with the adaptive-controller decision thresholds
     * (sched.resizeThreshold, sched.orderSwitchThreshold) pinned to
     * fixed values. Two configs that differ only in those thresholds
     * render byte-identical warm-up frames — the controller first
     * consults them when frame 2's feedback is compared against frame
     * 1's — so a frame-boundary snapshot taken within the warm prefix
     * is shared across such a sweep (see src/check/snapshot.hh).
     */
    std::uint64_t warmPrefixHash() const;

    /**
     * Cross-field sanity validation. Checks ranges of every knob, the
     * tile size against the screen, the Raster-Unit/core organization
     * against the warp configuration, and the cache/DRAM geometry.
     * Called by the runner before a simulation is built; an invalid
     * configuration surfaces as a recoverable InvalidArgument instead
     * of undefined simulator behaviour.
     */
    Status validate() const;

    std::uint32_t
    tilesX() const
    {
        return (screenWidth + tileSize - 1) / tileSize;
    }

    std::uint32_t
    tilesY() const
    {
        return (screenHeight + tileSize - 1) / tileSize;
    }

    std::uint32_t tileCount() const { return tilesX() * tilesY(); }

    /** Baseline of Table I: one RU with all the cores. */
    static GpuConfig
    baseline(std::uint32_t cores = 8)
    {
        GpuConfig cfg;
        cfg.rasterUnits = 1;
        cfg.coresPerRu = cores;
        cfg.sched.policy = SchedulerPolicy::ZOrder;
        return cfg;
    }

    /** PTR: the cores split across RUs, interleaved Z-order dispatch. */
    static GpuConfig
    ptr(std::uint32_t raster_units = 2, std::uint32_t cores_per_ru = 4)
    {
        GpuConfig cfg;
        cfg.rasterUnits = raster_units;
        cfg.coresPerRu = cores_per_ru;
        cfg.sched.policy = SchedulerPolicy::ZOrder;
        return cfg;
    }

    /** Full LIBRA: PTR plus the adaptive temperature-aware scheduler. */
    static GpuConfig
    libra(std::uint32_t raster_units = 2, std::uint32_t cores_per_ru = 4)
    {
        GpuConfig cfg;
        cfg.rasterUnits = raster_units;
        cfg.coresPerRu = cores_per_ru;
        cfg.sched.policy = SchedulerPolicy::Libra;
        return cfg;
    }

    /** PTR with supertile grouping only (Fig. 16 static points). */
    static GpuConfig
    staticSupertile(std::uint32_t supertile_size,
                    std::uint32_t raster_units = 2,
                    std::uint32_t cores_per_ru = 4)
    {
        GpuConfig cfg;
        cfg.rasterUnits = raster_units;
        cfg.coresPerRu = cores_per_ru;
        cfg.sched.policy = SchedulerPolicy::StaticSupertile;
        cfg.sched.staticSupertileSize = supertile_size;
        return cfg;
    }
};

} // namespace libra

#endif // LIBRA_GPU_GPU_CONFIG_HH
