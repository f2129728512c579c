#include "core/scheduling_policy.hh"

#include "common/log.hh"
#include "core/adaptive_controller.hh"
#include "core/temperature_table.hh"

namespace libra
{

void
SchedulingPolicy::exportState(SnapshotWriter &) const
{
}

void
SchedulingPolicy::importState(SnapshotReader &)
{
}

namespace
{

/** Z-order queue of supertiles at @p st_size (the non-ranked orders). */
void
fillZOrder(FramePlan &plan, const TileGrid &grid)
{
    for (const SuperTileId s : grid.superTileZOrder(plan.supertileSize))
        plan.queue.push_back(s);
}

/**
 * Temperature ranking from last frame's per-tile feedback, hottest
 * first, charging the ranking hardware's cycles to the plan (§III-D).
 */
void
fillTemperatureRanked(FramePlan &plan, const TileGrid &grid,
                      const FrameFeedback &prev)
{
    libra_assert(prev.tileDramAccesses.size() == grid.tileCount(),
                 "temperature order needs per-tile feedback");
    TemperatureTable table(grid.tileCount());
    table.load(prev.tileDramAccesses, prev.tileInstructions);
    const auto ranks = table.rank(grid, plan.supertileSize);
    for (const auto &rank : ranks)
        plan.queue.push_back(rank.id);
    plan.rankingCycles = TemperatureTable::hardwareCost(
        static_cast<std::uint32_t>(ranks.size())).rankingCycles;
}

/** Interleaved Z-order dispatch of single tiles (the PTR baseline). */
class ZOrderPolicy final : public SchedulingPolicy
{
  public:
    explicit ZOrderPolicy(const TileGrid &g) : grid(g) {}

    FramePlan
    planFrame(const FrameFeedback &) override
    {
        FramePlan plan;
        plan.supertileSize = 1;
        fillZOrder(plan, grid);
        return plan;
    }

  private:
    const TileGrid &grid;
};

/** Row-major traversal (the less cache-friendly order of §II-B). */
class ScanlinePolicy final : public SchedulingPolicy
{
  public:
    explicit ScanlinePolicy(const TileGrid &g) : grid(g) {}

    FramePlan
    planFrame(const FrameFeedback &) override
    {
        FramePlan plan;
        plan.supertileSize = 1;
        for (const TileId t : grid.scanlineOrder())
            plan.queue.push_back(t);
        return plan;
    }

  private:
    const TileGrid &grid;
};

/** Fixed-size supertiles in Z-order (Fig. 16's static points). */
class StaticSupertilePolicy final : public SchedulingPolicy
{
  public:
    StaticSupertilePolicy(const SchedulerConfig &cfg, const TileGrid &g)
        : grid(g), stSize(cfg.staticSupertileSize)
    {
    }

    FramePlan
    planFrame(const FrameFeedback &) override
    {
        FramePlan plan;
        plan.supertileSize = stSize;
        fillZOrder(plan, grid);
        return plan;
    }

  private:
    const TileGrid &grid;
    const std::uint32_t stSize;
};

/** Temperature-ranked hot/cold order at a fixed supertile size. */
class TemperatureStaticPolicy final : public SchedulingPolicy
{
  public:
    TemperatureStaticPolicy(const SchedulerConfig &cfg,
                            const TileGrid &g)
        : grid(g), stSize(cfg.staticSupertileSize)
    {
    }

    FramePlan
    planFrame(const FrameFeedback &prev) override
    {
        FramePlan plan;
        plan.temperatureOrder = prev.valid;
        plan.supertileSize = stSize;
        if (plan.temperatureOrder)
            fillTemperatureRanked(plan, grid, prev);
        else
            fillZOrder(plan, grid);
        return plan;
    }

  private:
    const TileGrid &grid;
    const std::uint32_t stSize;
};

/** Full LIBRA: the adaptive controller chooses order and size. */
class LibraPolicy final : public SchedulingPolicy
{
  public:
    LibraPolicy(const SchedulerConfig &cfg, const TileGrid &g)
        : grid(g), adaptive(cfg)
    {
    }

    FramePlan
    planFrame(const FrameFeedback &prev) override
    {
        FrameObservation obs;
        obs.valid = prev.valid;
        obs.rasterCycles = prev.rasterCycles;
        obs.textureHitRatio = prev.textureHitRatio;
        const ScheduleDecision decision = adaptive.decide(obs);

        FramePlan plan;
        plan.temperatureOrder = decision.temperatureOrder && prev.valid;
        plan.supertileSize = decision.supertileSize;
        if (plan.temperatureOrder)
            fillTemperatureRanked(plan, grid, prev);
        else
            fillZOrder(plan, grid);
        return plan;
    }

    void
    exportState(SnapshotWriter &w) const override
    {
        adaptive.exportState(w);
    }

    void
    importState(SnapshotReader &r) override
    {
        adaptive.importState(r);
    }

  private:
    const TileGrid &grid;
    AdaptiveController adaptive;
};

} // namespace

std::unique_ptr<SchedulingPolicy>
makeSchedulingPolicy(const SchedulerConfig &cfg, const TileGrid &grid)
{
    switch (cfg.policy) {
      case SchedulerPolicy::ZOrder:
        return std::make_unique<ZOrderPolicy>(grid);
      case SchedulerPolicy::Scanline:
        return std::make_unique<ScanlinePolicy>(grid);
      case SchedulerPolicy::StaticSupertile:
        return std::make_unique<StaticSupertilePolicy>(cfg, grid);
      case SchedulerPolicy::TemperatureStatic:
        return std::make_unique<TemperatureStaticPolicy>(cfg, grid);
      case SchedulerPolicy::Libra:
        return std::make_unique<LibraPolicy>(cfg, grid);
    }
    panic("unknown scheduling policy ",
          static_cast<int>(cfg.policy));
}

} // namespace libra
