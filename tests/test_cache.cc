/**
 * @file
 * Unit and property tests for the non-blocking cache model.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <vector>

#include "cache/cache.hh"
#include "cache/mem_system.hh"
#include "check/invariant_checker.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "sim/event_queue.hh"

using namespace libra;

namespace
{

/** Memory that records every request it receives. */
class RecordingMemory : public MemSink
{
  public:
    RecordingMemory(EventQueue &eq, Tick latency)
        : queue(eq), lat(latency)
    {}

    void
    access(MemReq req) override
    {
        reads += !req.write;
        writes += req.write;
        addrs.push_back(req.addr);
        if (req.onComplete) {
            const Tick done = queue.now() + lat;
            auto cb = std::move(req.onComplete);
            queue.schedule(done, [cb = std::move(cb), done]() mutable {
                cb(done);
            });
        }
    }

    EventQueue &queue;
    Tick lat;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::vector<Addr> addrs;
};

CacheConfig
smallCache()
{
    CacheConfig cfg;
    cfg.name = "test";
    cfg.sizeBytes = 1024; // 16 lines
    cfg.ways = 4;         // 4 sets
    cfg.lineBytes = 64;
    cfg.hitLatency = 2;
    cfg.mshrs = 4;
    cfg.portsPerCycle = 1;
    return cfg;
}

/** Functional set-associative LRU reference model. */
class RefCache
{
  public:
    RefCache(std::uint32_t sets, std::uint32_t ways)
        : numSets(sets), numWays(ways), lru(sets)
    {}

    /** @return true on hit; updates state like the real cache. */
    bool
    touch(Addr line)
    {
        auto &set = lru[(line / 64) % numSets];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == line) {
                set.erase(it);
                set.push_front(line);
                return true;
            }
        }
        set.push_front(line);
        if (set.size() > numWays)
            set.pop_back();
        return false;
    }

  private:
    std::uint32_t numSets;
    std::uint32_t numWays;
    std::vector<std::list<Addr>> lru;
};

} // namespace

TEST(Cache, MissThenHit)
{
    EventQueue eq;
    RecordingMemory mem(eq, 50);
    Cache cache(eq, smallCache(), mem);

    Tick first_done = 0, second_done = 0;
    cache.access(MemReq{0x1000, 64, false, TrafficClass::Texture, 0,
                        [&](Tick t) { first_done = t; }});
    eq.runUntil();
    cache.access(MemReq{0x1000, 64, false, TrafficClass::Texture, 0,
                        [&](Tick t) { second_done = t; }});
    eq.runUntil();

    EXPECT_EQ(cache.misses.value(), 1u);
    EXPECT_EQ(cache.hits.value(), 1u);
    EXPECT_EQ(mem.reads, 1u);
    // Miss: port(0) + next-level 50 + fill-to-use hitLatency.
    EXPECT_GE(first_done, 50u);
    // Hit completes after hit latency only.
    EXPECT_EQ(second_done, first_done + smallCache().hitLatency);
}

TEST(Cache, HitLatencyTiming)
{
    EventQueue eq;
    RecordingMemory mem(eq, 50);
    Cache cache(eq, smallCache(), mem);
    cache.access(MemReq{0, 64, false, TrafficClass::Texture, 0, nullptr});
    eq.runUntil();

    Tick done = 0;
    cache.access(MemReq{0, 64, false, TrafficClass::Texture, 0,
                        [&](Tick t) { done = t; }});
    const Tick start = eq.now();
    eq.runUntil();
    EXPECT_EQ(done, start + smallCache().hitLatency);
}

TEST(Cache, MshrCoalescesSameLine)
{
    EventQueue eq;
    RecordingMemory mem(eq, 100);
    Cache cache(eq, smallCache(), mem);

    int completed = 0;
    for (int i = 0; i < 5; ++i) {
        cache.access(MemReq{0x2000, 64, false, TrafficClass::Texture, 0,
                            [&](Tick) { ++completed; }});
    }
    eq.runUntil();
    EXPECT_EQ(completed, 5);
    EXPECT_EQ(cache.misses.value(), 1u);
    EXPECT_EQ(cache.mshrCoalesced.value(), 4u);
    EXPECT_EQ(mem.reads, 1u); // one fill serves all
}

TEST(Cache, MshrExhaustionStallsAndRecovers)
{
    EventQueue eq;
    RecordingMemory mem(eq, 100);
    Cache cache(eq, smallCache(), mem); // 4 MSHRs

    int completed = 0;
    for (int i = 0; i < 8; ++i) {
        cache.access(MemReq{static_cast<Addr>(0x10000 + i * 64), 64,
                            false, TrafficClass::Texture, 0,
                            [&](Tick) { ++completed; }});
    }
    EXPECT_EQ(cache.mshrStalls.value(), 4u);
    eq.runUntil();
    EXPECT_EQ(completed, 8);
    EXPECT_EQ(mem.reads, 8u);
    // Stalled requests were counted once each (as misses), not again on
    // retry.
    EXPECT_EQ(cache.misses.value(), 8u);
    EXPECT_EQ(cache.readAccesses.value(), 8u);
}

TEST(Cache, LruEviction)
{
    EventQueue eq;
    RecordingMemory mem(eq, 10);
    Cache cache(eq, smallCache(), mem); // 4 ways per set

    // Five lines mapping to the same set (stride = sets * lineBytes).
    const Addr stride = 4 * 64;
    for (Addr i = 0; i < 5; ++i) {
        cache.access(MemReq{i * stride, 64, false, TrafficClass::Texture,
                            0, nullptr});
        eq.runUntil();
    }
    EXPECT_EQ(cache.misses.value(), 5u);

    // Line 0 was LRU and must have been evicted; lines 1..4 resident.
    cache.access(MemReq{1 * stride, 64, false, TrafficClass::Texture, 0,
                        nullptr});
    eq.runUntil();
    EXPECT_EQ(cache.hits.value(), 1u);
    cache.access(MemReq{0, 64, false, TrafficClass::Texture, 0, nullptr});
    eq.runUntil();
    EXPECT_EQ(cache.misses.value(), 6u);
}

TEST(Cache, DirtyEvictionWritesBack)
{
    EventQueue eq;
    RecordingMemory mem(eq, 10);
    Cache cache(eq, smallCache(), mem);

    const Addr stride = 4 * 64;
    cache.access(MemReq{0, 64, true, TrafficClass::ParameterBuffer, 0,
                        nullptr});
    eq.runUntil();
    // Fill conflicting lines until line 0 is evicted.
    for (Addr i = 1; i <= 4; ++i) {
        cache.access(MemReq{i * stride, 64, false,
                            TrafficClass::Texture, 0, nullptr});
        eq.runUntil();
    }
    EXPECT_EQ(cache.writebacks.value(), 1u);
    EXPECT_EQ(mem.writes, 1u);
}

TEST(Cache, WriteHitMarksDirtyWithoutTraffic)
{
    EventQueue eq;
    RecordingMemory mem(eq, 10);
    Cache cache(eq, smallCache(), mem);
    cache.access(MemReq{0, 64, false, TrafficClass::Texture, 0, nullptr});
    eq.runUntil();
    const auto reads_before = mem.reads;
    cache.access(MemReq{0, 64, true, TrafficClass::Texture, 0, nullptr});
    eq.runUntil();
    EXPECT_EQ(mem.reads, reads_before);
    EXPECT_EQ(mem.writes, 0u); // dirty, not written through
    EXPECT_EQ(cache.hits.value(), 1u);
}

TEST(Cache, NoWriteAllocateForwardsWrites)
{
    EventQueue eq;
    RecordingMemory mem(eq, 10);
    CacheConfig cfg = smallCache();
    cfg.writeAllocate = false;
    Cache cache(eq, cfg, mem);
    cache.access(MemReq{0x5000, 64, true, TrafficClass::FrameBuffer, 0,
                        nullptr});
    eq.runUntil();
    EXPECT_EQ(mem.writes, 1u);
    // A later read to the same line still misses (it was not allocated).
    cache.access(MemReq{0x5000, 64, false, TrafficClass::Texture, 0,
                        nullptr});
    eq.runUntil();
    EXPECT_EQ(cache.misses.value(), 2u);
}

TEST(Cache, MultiLineRequestSplitsAndCompletesOnce)
{
    EventQueue eq;
    RecordingMemory mem(eq, 20);
    Cache cache(eq, smallCache(), mem);
    int completions = 0;
    cache.access(MemReq{0x100, 256, false, TrafficClass::Geometry, 0,
                        [&](Tick) { ++completions; }});
    eq.runUntil();
    EXPECT_EQ(completions, 1);
    // 0x100..0x1ff spans lines 0x100,0x140,0x180,0x1c0.
    EXPECT_EQ(cache.misses.value(), 4u);
}

TEST(Cache, InvalidateAllDropsCleanWritesBackDirty)
{
    EventQueue eq;
    RecordingMemory mem(eq, 10);
    Cache cache(eq, smallCache(), mem);
    cache.access(MemReq{0, 64, false, TrafficClass::Texture, 0, nullptr});
    cache.access(MemReq{64, 64, true, TrafficClass::ParameterBuffer, 0,
                        nullptr});
    eq.runUntil();
    cache.invalidateAll();
    EXPECT_EQ(mem.writes, 1u); // only the dirty line
    cache.access(MemReq{0, 64, false, TrafficClass::Texture, 0, nullptr});
    eq.runUntil();
    EXPECT_EQ(cache.misses.value(), 3u); // cold again
}

TEST(Cache, AlwaysHitNeverForwards)
{
    EventQueue eq;
    RecordingMemory mem(eq, 10);
    CacheConfig cfg = smallCache();
    cfg.alwaysHit = true;
    Cache cache(eq, cfg, mem);
    Tick done = 0;
    cache.access(MemReq{0x7780, 64, false, TrafficClass::Texture, 0,
                        [&](Tick t) { done = t; }});
    eq.runUntil();
    EXPECT_EQ(mem.reads, 0u);
    EXPECT_EQ(cache.hits.value(), 1u);
    EXPECT_EQ(done, cfg.hitLatency);
}

TEST(Cache, PortArbitrationSerializesAccesses)
{
    EventQueue eq;
    RecordingMemory mem(eq, 0);
    CacheConfig cfg = smallCache();
    cfg.portsPerCycle = 1;
    Cache cache(eq, cfg, mem);
    // Warm two lines.
    cache.access(MemReq{0, 64, false, TrafficClass::Texture, 0, nullptr});
    cache.access(MemReq{64, 64, false, TrafficClass::Texture, 0,
                        nullptr});
    eq.runUntil();
    const Tick start = eq.now();
    std::vector<Tick> done;
    for (int i = 0; i < 4; ++i) {
        cache.access(MemReq{static_cast<Addr>((i % 2) * 64), 64, false,
                            TrafficClass::Texture, 0,
                            [&](Tick t) { done.push_back(t); }});
    }
    eq.runUntil();
    ASSERT_EQ(done.size(), 4u);
    // One access per cycle: completions one cycle apart, the first no
    // earlier than the hit latency.
    EXPECT_GE(done[0], start + cfg.hitLatency);
    for (int i = 1; i < 4; ++i) {
        EXPECT_EQ(done[static_cast<std::size_t>(i)],
                  done[static_cast<std::size_t>(i - 1)] + 1);
    }
}

/**
 * Property test: with accesses fully drained between requests, the
 * timing cache's hit/miss sequence must match a functional LRU
 * reference model exactly.
 */
TEST(CacheProperty, MatchesReferenceLruModel)
{
    EventQueue eq;
    RecordingMemory mem(eq, 5);
    Cache cache(eq, smallCache(), mem); // 4 sets x 4 ways
    RefCache ref(4, 4);
    Rng rng(2024);

    for (int i = 0; i < 5000; ++i) {
        // Cluster addresses so hits actually happen.
        const Addr line = rng.below(40) * 64;
        const auto hits_before = cache.hits.value();
        cache.access(MemReq{line, 64, false, TrafficClass::Texture, 0,
                            nullptr});
        eq.runUntil();
        const bool cache_hit = cache.hits.value() > hits_before;
        const bool ref_hit = ref.touch(line);
        ASSERT_EQ(cache_hit, ref_hit) << "access " << i << " line "
                                      << line;
    }
}

/** Parameterized sweep: geometry combinations behave sanely. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>>
{};

TEST_P(CacheGeometry, FillsWholeCapacityWithoutEviction)
{
    const auto [size_kb, ways] = GetParam();
    EventQueue eq;
    RecordingMemory mem(eq, 3);
    CacheConfig cfg = smallCache();
    cfg.sizeBytes = size_kb * 1024;
    cfg.ways = ways;
    Cache cache(eq, cfg, mem);

    const std::uint32_t lines = cfg.sizeBytes / cfg.lineBytes;
    for (std::uint32_t i = 0; i < lines; ++i) {
        cache.access(MemReq{static_cast<Addr>(i) * 64, 64, false,
                            TrafficClass::Texture, 0, nullptr});
        eq.runUntil();
    }
    EXPECT_EQ(cache.misses.value(), lines);
    EXPECT_EQ(cache.writebacks.value(), 0u);
    // Re-touch everything: all hits, capacity exactly holds the set.
    for (std::uint32_t i = 0; i < lines; ++i) {
        cache.access(MemReq{static_cast<Addr>(i) * 64, 64, false,
                            TrafficClass::Texture, 0, nullptr});
        eq.runUntil();
    }
    EXPECT_EQ(cache.hits.value(), lines);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Combine(::testing::Values(1u, 4u, 32u),
                       ::testing::Values(1u, 2u, 4u, 8u)));

// ---------------------------------------------------------------------
// MSHR accounting conservation: hits + misses + mshr_coalesced must
// equal read_accesses + write_accesses at every quiescent point, under
// coalescing, MSHR stalls and multi-line splits alike (the law the
// InvariantChecker enforces per frame).
// ---------------------------------------------------------------------

TEST(CacheConservation, HoldsUnderCoalescing)
{
    EventQueue eq;
    RecordingMemory mem(eq, 20);
    Cache cache(eq, smallCache(), mem);

    // Three back-to-back reads of one line: one miss, two coalesced.
    for (int i = 0; i < 3; ++i)
        cache.access(MemReq{0x2000, 4, false, TrafficClass::Texture,
                            invalidId, nullptr});
    eq.runUntil();

    EXPECT_EQ(cache.misses.value(), 1u);
    EXPECT_EQ(cache.mshrCoalesced.value(), 2u);
    EXPECT_EQ(cache.hits.value() + cache.misses.value() +
                  cache.mshrCoalesced.value(),
              cache.readAccesses.value() + cache.writeAccesses.value());

    InvariantChecker checker;
    checker.checkCacheConservation(cache);
    EXPECT_TRUE(checker.ok()) << checker.status().toString();
}

TEST(CacheConservation, HoldsUnderMshrStalls)
{
    EventQueue eq;
    RecordingMemory mem(eq, 50);
    Cache cache(eq, smallCache(), mem); // 4 MSHRs

    // More distinct-line misses than MSHRs: the excess stalls and
    // retries, but each request is still counted exactly once.
    for (Addr line = 0; line < 8; ++line)
        cache.access(MemReq{0x4000 + line * 64, 4, false,
                            TrafficClass::Texture, invalidId, nullptr});
    eq.runUntil();

    EXPECT_EQ(cache.misses.value(), 8u);
    EXPECT_GT(cache.mshrStalls.value(), 0u);
    // Stalls are extra bookkeeping, not part of the partition.
    EXPECT_EQ(cache.hits.value() + cache.misses.value() +
                  cache.mshrCoalesced.value(),
              cache.readAccesses.value() + cache.writeAccesses.value());

    InvariantChecker checker;
    checker.checkCacheConservation(cache);
    EXPECT_TRUE(checker.ok()) << checker.status().toString();
}

TEST(CacheConservation, HoldsUnderMultiLineSplits)
{
    EventQueue eq;
    RecordingMemory mem(eq, 10);
    Cache cache(eq, smallCache(), mem);

    // A 128-byte request spans two 64-byte lines: the splitter turns it
    // into two accesses, and each part keeps the law balanced.
    cache.access(MemReq{0x6000, 128, false, TrafficClass::Texture,
                        invalidId, nullptr});
    eq.runUntil();
    EXPECT_EQ(cache.readAccesses.value(), 2u);
    EXPECT_EQ(cache.misses.value(), 2u);

    // An unaligned write straddling a line boundary.
    cache.access(MemReq{0x6000 + 60, 8, true, TrafficClass::FrameBuffer,
                        invalidId, nullptr});
    eq.runUntil();

    EXPECT_EQ(cache.hits.value() + cache.misses.value() +
                  cache.mshrCoalesced.value(),
              cache.readAccesses.value() + cache.writeAccesses.value());

    InvariantChecker checker;
    checker.checkCacheConservation(cache);
    EXPECT_TRUE(checker.ok()) << checker.status().toString();
}

TEST(Cache, InvalidateDiscardsInFlightFill)
{
    // Regression: invalidateAll() used to ignore outstanding MSHR
    // fills, so the late fill re-installed a stale line after the
    // invalidation. The fill must be discarded (waiters still complete
    // with correct timing) and a re-access must go back to memory.
    EventQueue eq;
    RecordingMemory mem(eq, 30);
    Cache cache(eq, smallCache(), mem);

    bool completed = false;
    cache.access(MemReq{0x8000, 4, false, TrafficClass::Texture,
                        invalidId,
                        [&completed](Tick) { completed = true; }});
    EXPECT_EQ(mem.reads, 1u);

    // Invalidate while the fill is still in flight.
    cache.invalidateAll();
    eq.runUntil();
    EXPECT_TRUE(completed); // the waiter is never dropped
    EXPECT_EQ(cache.invalidatedFills.value(), 1u);

    // The line was NOT installed: touching it again misses to memory.
    cache.access(MemReq{0x8000, 4, false, TrafficClass::Texture,
                        invalidId, nullptr});
    eq.runUntil();
    EXPECT_EQ(mem.reads, 2u);
    EXPECT_EQ(cache.hits.value(), 0u);

    InvariantChecker checker;
    checker.checkCacheConservation(cache);
    EXPECT_TRUE(checker.ok()) << checker.status().toString();
}
