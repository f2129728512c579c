/**
 * @file
 * Unit tests for the Tile Fetcher, driven against mock RasterSinks so
 * the exact delivered stream is observable.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "cache/cache.hh"
#include "cache/mem_system.hh"
#include "core/tile_scheduler.hh"
#include "gpu/tiling/polygon_list_builder.hh"
#include "gpu/tiling/tile_fetcher.hh"
#include "sim/event_queue.hh"
#include "workload/scene.hh"

using namespace libra;

namespace
{

/** Records the pushed stream; frees FIFO space on demand. */
class MockSink : public RasterSink
{
  public:
    explicit MockSink(std::size_t depth = 8) : depth_(depth) {}

    bool canPush() const override { return occupancy < depth_; }

    void
    push(const RasterWork &work) override
    {
        ++occupancy;
        stream.push_back(work);
    }

    /** Consume @p n entries (as the raster front would). */
    void
    consume(std::size_t n = 1)
    {
        occupancy = n >= occupancy ? 0 : occupancy - n;
        if (onSpaceFreed)
            onSpaceFreed();
    }

    std::size_t occupancy = 0;
    std::vector<RasterWork> stream;

  private:
    std::size_t depth_;
};

/** Small frame: 2x2 tile grid with known per-tile primitive lists. */
struct Rig
{
    Rig(std::uint32_t num_sinks, std::size_t depth = 64)
        : grid(64, 64, 32), mem(eq, 5),
          cache(eq, CacheConfig{"tile_cache", 32 * 1024, 4, 64, 2, 16,
                                2, true, false},
                mem),
          sched_cfg{}, scheduler(sched_cfg, grid, num_sinks)
    {
        for (std::uint32_t i = 0; i < num_sinks; ++i)
            sinks.push_back(std::make_unique<MockSink>(depth));
        std::vector<RasterSink *> ptrs;
        for (auto &sink : sinks)
            ptrs.push_back(sink.get());
        fetcher = std::make_unique<TileFetcher>(eq, cache, ptrs,
                                                scheduler);

        // Build a frame where tile t holds (t + 1) triangles.
        FrameData frame;
        DrawCall draw;
        for (TileId t = 0; t < grid.tileCount(); ++t) {
            const IRect r = grid.tileRect(t);
            for (TileId k = 0; k <= t; ++k) {
                Triangle tri;
                tri.v[0] = {{static_cast<float>(r.x0) + 2,
                             static_cast<float>(r.y0) + 2, 0.5f},
                            {0, 0}};
                tri.v[1] = {{static_cast<float>(r.x0) + 20,
                             static_cast<float>(r.y0) + 2, 0.5f},
                            {1, 0}};
                tri.v[2] = {{static_cast<float>(r.x0) + 2,
                             static_cast<float>(r.y0) + 20, 0.5f},
                            {0, 1}};
                draw.tris.push_back(tri);
            }
        }
        draw.vertexCount = 3;
        frame.draws.push_back(std::move(draw));
        binned = binFrame(frame, grid);
    }

    void
    run()
    {
        scheduler.beginFrame(FrameFeedback{});
        fetcher->beginFrame(binned);
        // Consume continuously until the stream drains.
        while (!eq.empty() || !fetcher->drained()) {
            eq.runUntil(eq.nextEventTick());
            for (auto &sink : sinks)
                sink->consume(sink->occupancy);
            if (eq.empty() && !fetcher->drained())
                break; // deadlock guard for the test
        }
    }

    EventQueue eq;
    TileGrid grid;
    IdealMemory mem;
    Cache cache;
    SchedulerConfig sched_cfg;
    TileScheduler scheduler;
    std::vector<std::unique_ptr<MockSink>> sinks;
    std::unique_ptr<TileFetcher> fetcher;
    BinnedFrame binned;
};

} // namespace

TEST(TileFetcher, DeliversEveryTileOnce)
{
    Rig rig(1);
    rig.run();
    EXPECT_TRUE(rig.fetcher->drained());
    std::set<TileId> begins, ends;
    for (const auto &work : rig.sinks[0]->stream) {
        if (work.kind == RasterWork::Kind::TileBegin) {
            EXPECT_TRUE(begins.insert(work.tile).second);
        }
        if (work.kind == RasterWork::Kind::TileEnd) {
            EXPECT_TRUE(ends.insert(work.tile).second);
        }
    }
    EXPECT_EQ(begins.size(), rig.grid.tileCount());
    EXPECT_EQ(ends.size(), rig.grid.tileCount());
}

TEST(TileFetcher, StreamIsWellFormed)
{
    // Begin → prims → End per tile; prims carry the owning tile id.
    Rig rig(1);
    rig.run();
    bool in_tile = false;
    TileId current = invalidId;
    for (const auto &work : rig.sinks[0]->stream) {
        switch (work.kind) {
          case RasterWork::Kind::TileBegin:
            EXPECT_FALSE(in_tile);
            in_tile = true;
            current = work.tile;
            break;
          case RasterWork::Kind::Prim:
            EXPECT_TRUE(in_tile);
            EXPECT_EQ(work.tile, current);
            break;
          case RasterWork::Kind::TileEnd:
            EXPECT_TRUE(in_tile);
            EXPECT_EQ(work.tile, current);
            in_tile = false;
            break;
        }
    }
    EXPECT_FALSE(in_tile);
}

TEST(TileFetcher, DeliversFullPrimitiveListsInOrder)
{
    Rig rig(1);
    rig.run();
    std::map<TileId, std::vector<std::uint32_t>> delivered;
    for (const auto &work : rig.sinks[0]->stream) {
        if (work.kind == RasterWork::Kind::Prim)
            delivered[work.tile].push_back(work.primIndex);
    }
    for (TileId t = 0; t < rig.grid.tileCount(); ++t) {
        EXPECT_EQ(delivered[t], rig.binned.tileLists[t])
            << "tile " << t;
    }
}

TEST(TileFetcher, SplitsTilesAcrossSinks)
{
    Rig rig(2);
    rig.run();
    std::set<TileId> tiles0, tiles1;
    for (const auto &work : rig.sinks[0]->stream) {
        if (work.kind == RasterWork::Kind::TileBegin)
            tiles0.insert(work.tile);
    }
    for (const auto &work : rig.sinks[1]->stream) {
        if (work.kind == RasterWork::Kind::TileBegin)
            tiles1.insert(work.tile);
    }
    EXPECT_FALSE(tiles0.empty());
    EXPECT_FALSE(tiles1.empty());
    EXPECT_EQ(tiles0.size() + tiles1.size(), rig.grid.tileCount());
    for (const TileId t : tiles0)
        EXPECT_EQ(tiles1.count(t), 0u);
}

TEST(TileFetcher, RespectsFifoBackpressure)
{
    // With a tiny FIFO and no consumption, the fetcher must stop after
    // filling it (no overflow pushes).
    Rig rig(1, 4);
    rig.scheduler.beginFrame(FrameFeedback{});
    rig.fetcher->beginFrame(rig.binned);
    rig.eq.runUntil();
    EXPECT_LE(rig.sinks[0]->occupancy, 4u);
    EXPECT_FALSE(rig.fetcher->drained());
    // Consuming unblocks it.
    for (int i = 0; i < 10000 && !rig.fetcher->drained(); ++i) {
        rig.sinks[0]->consume(rig.sinks[0]->occupancy);
        rig.eq.runUntil();
    }
    EXPECT_TRUE(rig.fetcher->drained());
}

TEST(TileFetcher, GeneratesParameterBufferTraffic)
{
    Rig rig(1);
    rig.run();
    EXPECT_GT(rig.fetcher->listLineReads.value(), 0u);
    EXPECT_GT(rig.fetcher->recordReads.value(), 0u);
    // One record read per delivered primitive.
    EXPECT_EQ(rig.fetcher->recordReads.value(),
              rig.fetcher->primsFetched.value());
    // Reads hit the tile cache with the ParameterBuffer class.
    EXPECT_GT(rig.cache.readAccesses.value(), 0u);
}

TEST(TileFetcher, CountsTilesAndPrims)
{
    Rig rig(1);
    rig.run();
    EXPECT_EQ(rig.fetcher->tilesFetched.value(), rig.grid.tileCount());
    std::uint64_t expected_prims = 0;
    for (const auto &list : rig.binned.tileLists)
        expected_prims += list.size();
    EXPECT_EQ(rig.fetcher->primsFetched.value(), expected_prims);
}
