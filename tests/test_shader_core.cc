/**
 * @file
 * Tests for the multithreaded shader core timing model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hh"
#include "cache/mem_system.hh"
#include "gpu/raster/shader_core.hh"
#include "sim/event_queue.hh"

using namespace libra;

namespace
{

struct Rig
{
    explicit Rig(Tick mem_latency = 40, std::uint32_t warp_slots = 4)
        : mem(eq, mem_latency),
          cache(eq, CacheConfig{"l1", 32 * 1024, 4, 64, 2, 16, 4, true,
                                false},
                mem),
          core(eq, warp_slots, cache, "core0")
    {}

    EventQueue eq;
    IdealMemory mem;
    Cache cache;
    ShaderCore core;
};

WarpTask
aluWarp(std::uint16_t ops)
{
    WarpTask task;
    task.tile = 0;
    task.quadCount = 8;
    task.fragments = 32;
    task.aluOps = ops;
    task.instructions = ops + ShaderCore::tailOps;
    return task;
}

WarpTask
texWarp(std::uint16_t ops, std::vector<Addr> lines)
{
    WarpTask task = aluWarp(ops);
    task.texLines = std::move(lines);
    task.instructions += task.texLines.size();
    return task;
}

} // namespace

TEST(ShaderCore, PureAluWarpTiming)
{
    Rig rig;
    Tick retired = 0;
    rig.core.dispatch(aluWarp(10), [&](const WarpRetireInfo &info) {
        retired = info.shadedAt;
    });
    rig.eq.runUntil();
    // 10 ALU cycles + tail.
    EXPECT_EQ(retired, 10 + ShaderCore::tailOps);
    EXPECT_EQ(rig.core.warpsExecuted.value(), 1u);
    EXPECT_EQ(rig.core.busyCycles(), 10 + ShaderCore::tailOps);
}

TEST(ShaderCore, AluPhasesSerializeOnIssuePort)
{
    Rig rig;
    std::vector<Tick> retired;
    for (int i = 0; i < 3; ++i) {
        rig.core.dispatch(aluWarp(10), [&](const WarpRetireInfo &info) {
            retired.push_back(info.shadedAt);
        });
    }
    rig.eq.runUntil();
    ASSERT_EQ(retired.size(), 3u);
    // Single-issue: the three 10-cycle ALU blocks plus the three tail
    // blocks all share the issue port, so the last warp cannot finish
    // before all that work has issued.
    EXPECT_GE(retired[2], 3u * 10u + 3u * ShaderCore::tailOps);
    EXPECT_LE(retired[0], retired[1]);
    EXPECT_LE(retired[1], retired[2]);
    EXPECT_EQ(rig.core.busyCycles(),
              3u * (10u + ShaderCore::tailOps));
}

TEST(ShaderCore, TextureMissLatencyAddsToWarpTime)
{
    Rig rig(100);
    Tick retired = 0;
    rig.core.dispatch(texWarp(4, {0x1000}),
                      [&](const WarpRetireInfo &info) {
                          retired = info.shadedAt;
                      });
    rig.eq.runUntil();
    // ALU 4 + miss ~100+ + tail.
    EXPECT_GE(retired, 100u);
    EXPECT_GT(rig.core.texLatencySum.value(), 90u);
    EXPECT_EQ(rig.core.texRequests.value(), 1u);
}

TEST(ShaderCore, MemoryLatencyHiddenByOtherWarps)
{
    // Two warps: while warp A waits on memory, warp B issues ALU. The
    // total time must be far less than the serial sum.
    Rig rig(200, 4);
    Tick last = 0;
    for (int i = 0; i < 4; ++i) {
        rig.core.dispatch(
            texWarp(10, {static_cast<Addr>(0x1000 + i * 0x10000)}),
            [&](const WarpRetireInfo &info) {
                last = std::max(last, info.shadedAt);
            });
    }
    rig.eq.runUntil();
    // Serial would be ~4 * (10 + 200 + 2) ≈ 848; overlapped should be
    // a little over one memory latency.
    EXPECT_LT(last, 350u);
    EXPECT_GE(last, 200u);
}

TEST(ShaderCore, SlotAccounting)
{
    Rig rig(50, 2);
    EXPECT_TRUE(rig.core.hasFreeSlot());
    EXPECT_EQ(rig.core.freeSlots(), 2u);
    int retired = 0;
    rig.core.dispatch(texWarp(2, {0x0}),
                      [&](const WarpRetireInfo &) { ++retired; });
    rig.core.dispatch(texWarp(2, {0x40000}),
                      [&](const WarpRetireInfo &) { ++retired; });
    EXPECT_FALSE(rig.core.hasFreeSlot());
    EXPECT_EQ(rig.core.resident(), 2u);
    rig.eq.runUntil();
    EXPECT_EQ(retired, 2);
    EXPECT_EQ(rig.core.freeSlots(), 2u);
}

TEST(ShaderCore, RetireInfoCarriesTaskAttributes)
{
    Rig rig;
    WarpTask task = texWarp(6, {0x100, 0x200});
    task.tile = 77;
    task.blend = true;
    task.quadCount = 5;
    task.fragments = 17;
    WarpRetireInfo seen{};
    rig.core.dispatch(std::move(task), [&](const WarpRetireInfo &info) {
        seen = info;
    });
    rig.eq.runUntil();
    EXPECT_EQ(seen.tile, 77u);
    EXPECT_TRUE(seen.blend);
    EXPECT_EQ(seen.quadCount, 5u);
    EXPECT_EQ(seen.fragments, 17u);
    EXPECT_EQ(seen.texRequests, 2u);
    EXPECT_EQ(seen.instructions, 6u + 2u + ShaderCore::tailOps);
}

TEST(ShaderCore, RetireCallbackMayRefillItsOwnSlot)
{
    // One warp slot: the first warp's retire callback dispatches the
    // second warp into the very slot it just freed. The running
    // callback, its captures and the info it was handed must all
    // survive that.
    Rig rig(40, 1);
    struct
    {
        WarpRetireInfo first{}, second{};
        int retired = 0;
    } seen;
    WarpTask a = texWarp(3, {0x100, 0x200});
    a.tile = 11;
    a.quadCount = 5;
    a.fragments = 17;
    WarpTask b = texWarp(7, {0x4000});
    b.tile = 22;
    b.blend = true;
    b.quadCount = 2;
    b.fragments = 6;

    rig.core.dispatch(a, [&seen, &rig, &b, marks = std::vector<int>{
                                              1, 2, 3}](
                             const WarpRetireInfo &info) {
        ASSERT_TRUE(rig.core.hasFreeSlot());
        rig.core.dispatch(b, [&seen](const WarpRetireInfo &info2) {
            seen.second = info2;
            ++seen.retired;
        });
        EXPECT_FALSE(rig.core.hasFreeSlot());
        EXPECT_EQ(marks, (std::vector<int>{1, 2, 3}));
        seen.first = info; // read after the slot was reused
        ++seen.retired;
    });
    rig.eq.runUntil();

    ASSERT_EQ(seen.retired, 2);
    EXPECT_EQ(seen.first.tile, 11u);
    EXPECT_FALSE(seen.first.blend);
    EXPECT_EQ(seen.first.quadCount, 5u);
    EXPECT_EQ(seen.first.fragments, 17u);
    EXPECT_EQ(seen.first.texRequests, 2u);
    EXPECT_EQ(seen.first.instructions, 3u + 2u + ShaderCore::tailOps);
    EXPECT_EQ(seen.second.tile, 22u);
    EXPECT_TRUE(seen.second.blend);
    EXPECT_EQ(seen.second.quadCount, 2u);
    EXPECT_EQ(seen.second.fragments, 6u);
    EXPECT_EQ(seen.second.texRequests, 1u);
    EXPECT_EQ(seen.second.instructions, 7u + 1u + ShaderCore::tailOps);
    EXPECT_GT(seen.second.shadedAt, seen.first.shadedAt);
    EXPECT_EQ(rig.core.warpsExecuted.value(), 2u);
    EXPECT_EQ(rig.core.freeSlots(), 1u);
}

TEST(ShaderCore, SameLineRequestsCoalesceInL1)
{
    Rig rig(100);
    Tick retired = 0;
    rig.core.dispatch(texWarp(2, {0x1000, 0x1000, 0x1000, 0x1000}),
                      [&](const WarpRetireInfo &info) {
                          retired = info.shadedAt;
                      });
    rig.eq.runUntil();
    EXPECT_EQ(rig.cache.misses.value(), 1u);
    EXPECT_EQ(rig.cache.mshrCoalesced.value(), 3u);
    EXPECT_EQ(rig.mem.accesses, 1u);
}

TEST(ShaderCore, ZeroAluOpsStillTakesACycle)
{
    Rig rig;
    Tick retired = 0;
    rig.core.dispatch(aluWarp(0), [&](const WarpRetireInfo &info) {
        retired = info.shadedAt;
    });
    rig.eq.runUntil();
    EXPECT_GE(retired, 1u + ShaderCore::tailOps);
}

TEST(ShaderCoreDeathTest, DispatchToFullCorePanics)
{
    Rig rig(1000, 1);
    rig.core.dispatch(texWarp(2, {0x0}), [](const WarpRetireInfo &) {});
    EXPECT_DEATH(rig.core.dispatch(aluWarp(1),
                                   [](const WarpRetireInfo &) {}),
                 "full core");
}
