/**
 * @file
 * The tile scheduler: decides which tile each Raster Unit renders next
 * (paper §III-B/§III-D).
 *
 * The Tile Fetcher pulls tiles per Raster Unit. The per-frame plan
 * (traversal order, supertile size, ranking) is produced by a
 * SchedulingPolicy object (core/scheduling_policy.hh); this class
 * keeps only the handout mechanics shared by every policy: the
 * supertile queue, the per-RU cursors and the hot/cold split —
 * RU 0..hotRasterUnits-1 pull the hot/front end of a
 * temperature-ordered queue, every other RU the cold/back end.
 *
 * Rendering Elimination hooks in here too: when the Gpu installs a
 * skipTile predicate, tiles whose input signature is unchanged are
 * discarded at handout time — before they ever reach the Tile Fetcher
 * — and reported through onTileSkipped so frame accounting still sees
 * them exactly once. Both callbacks run inside nextTile(), which only
 * the fetcher calls.
 */

#ifndef LIBRA_CORE_TILE_SCHEDULER_HH
#define LIBRA_CORE_TILE_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/scheduler_config.hh"
#include "core/scheduling_policy.hh"
#include "gpu/tiling/tile_grid.hh"

namespace libra
{

class TileScheduler
{
  public:
    TileScheduler(const SchedulerConfig &cfg, const TileGrid &grid,
                  std::uint32_t num_rus);

    /** Prepare the schedule for the coming frame. */
    void beginFrame(const FrameFeedback &prev);

    /**
     * Next tile for Raster Unit @p ru, or nullopt when the frame's
     * tiles are exhausted. Within a supertile, tiles come in Z-order.
     */
    std::optional<TileId> nextTile(std::uint32_t ru);

    /**
     * Rendering Elimination hook (installed by the Gpu when
     * GpuConfig::renderingElimination is set): a tile for which
     * skipTile returns true is dropped at handout instead of being
     * returned from nextTile(), and onTileSkipped is invoked for it so
     * the frame's exactly-once coverage accounting still holds.
     */
    std::function<bool(TileId)> skipTile;
    std::function<void(TileId)> onTileSkipped;

    // --- Introspection (tests, benches, reports) -----------------------
    bool temperatureOrderActive() const { return plan.temperatureOrder; }
    std::uint32_t supertileSize() const { return plan.supertileSize; }
    std::uint64_t lastRankingCycles() const { return plan.rankingCycles; }

    /**
     * Tiles not yet handed out this frame (queued supertiles plus
     * partially consumed per-RU cursors). 64-bit: a supertile count
     * times tiles-per-supertile overflows 32 bits on extreme grids.
     */
    std::uint64_t tilesRemaining() const;

    /**
     * Serialize/restore cross-frame scheduler state. The supertile
     * queue, cursors and ranking cost are rebuilt by beginFrame(), so
     * this delegates to the policy object — only a policy with
     * cross-frame state (LIBRA's adaptive controller) writes anything.
     */
    void exportState(SnapshotWriter &w) const;
    void importState(SnapshotReader &r);

  private:
    SchedulerConfig config;
    const TileGrid &grid;
    std::uint32_t numRus;
    std::unique_ptr<SchedulingPolicy> policy;

    /** This frame's plan, replaced wholesale every beginFrame(). */
    FramePlan plan;

    /** Per-RU current supertile contents. */
    struct RuCursor
    {
        std::vector<TileId> tiles;
        std::size_t idx = 0;
    };
    std::vector<RuCursor> cursors;
};

} // namespace libra

#endif // LIBRA_CORE_TILE_SCHEDULER_HH
