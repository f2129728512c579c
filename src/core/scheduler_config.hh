/**
 * @file
 * Configuration of the tile scheduler (paper §III-B/C/D).
 */

#ifndef LIBRA_CORE_SCHEDULER_CONFIG_HH
#define LIBRA_CORE_SCHEDULER_CONFIG_HH

#include <cstdint>

namespace libra
{

/** Which tile scheduling policy the Tile Fetcher follows. */
enum class SchedulerPolicy
{
    /**
     * Conventional Z-order (Morton) traversal. With multiple Raster
     * Units, tiles are handed out in that order to whichever RU has
     * space — the "interleaved tile assignment" PTR baseline (§III-A).
     */
    ZOrder,

    /**
     * Z-order traversal over fixed-size supertiles; each supertile is
     * assigned whole to one RU (Fig. 16's static points). Temperature
     * ranking is disabled.
     */
    StaticSupertile,

    /**
     * Full LIBRA: adaptive per-frame choice between Z-order and the
     * temperature-based order, hot/cold RU pairing, and dynamic
     * supertile resizing (§III-D).
     */
    Libra,

    /**
     * Ablation: temperature-based hot/cold ordering with a fixed
     * supertile size (no adaptivity).
     */
    TemperatureStatic,

    /**
     * Ablation: scanline (row-major) traversal instead of Morton —
     * the less cache-friendly conventional order of §II-B.
     */
    Scanline
};

/** Scheduler knobs; defaults are the paper's chosen values. */
struct SchedulerConfig
{
    SchedulerPolicy policy = SchedulerPolicy::ZOrder;

    /** Supertile side for StaticSupertile / TemperatureStatic. */
    std::uint32_t staticSupertileSize = 4;

    /** Initial supertile side for LIBRA's dynamic resizing. */
    std::uint32_t initialSupertileSize = 4;

    /**
     * Texture-L1 hit-ratio threshold: above it, memory congestion is
     * unlikely and Z-order is used (§III-D; 80%).
     */
    double hitRatioThreshold = 0.80;

    /**
     * Performance-variation threshold that triggers switching the tile
     * ordering scheme (§III-D; 3%).
     */
    double orderSwitchThreshold = 0.03;

    /**
     * Performance-variation threshold for resizing supertiles
     * (§III-D; 0.25%).
     */
    double resizeThreshold = 0.0025;

    /** Supertile sizes the resizer may choose among (powers of two). */
    std::uint32_t minSupertileSize = 2;
    std::uint32_t maxSupertileSize = 16;

    /**
     * Raster Units dedicated to the hot end of the ranking; the rest
     * pull from the cold end. The paper fixes this at one so at most
     * one RU processes high-demand tiles at any time (§V-D); exposed
     * here for the ablation bench.
     */
    std::uint32_t hotRasterUnits = 1;
};

} // namespace libra

#endif // LIBRA_CORE_SCHEDULER_CONFIG_HH
