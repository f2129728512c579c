/**
 * @file
 * Tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <unordered_set>

#include "common/rng.hh"

using namespace libra;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, UniformRangeRespected)
{
    Rng rng(10);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform(-3.0, 7.0);
        EXPECT_GE(v, -3.0);
        EXPECT_LT(v, 7.0);
    }
}

TEST(Rng, UniformMeanIsCentered)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowBounds)
{
    Rng rng(12);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
    EXPECT_EQ(rng.below(0), 0u);
    EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(13);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.range(3, 6);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 6);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_EQ(rng.range(5, 5), 5);
    EXPECT_EQ(rng.range(9, 2), 9); // degenerate: returns lo
}

TEST(Rng, GaussianRoughMoments)
{
    Rng rng(14);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.gaussian();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(15);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, HashCombineSensitivity)
{
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
    EXPECT_NE(hashCombine(1, 2), hashCombine(1, 3));
    EXPECT_EQ(hashCombine(5, 6), hashCombine(5, 6));
}

TEST(Rng, SplitMixAdvancesState)
{
    std::uint64_t s = 0;
    const auto a = splitmix64(s);
    const auto b = splitmix64(s);
    EXPECT_NE(a, b);
}

// --- hashCombine as a persistent-key mixer ---------------------------
//
// Since the sim-farm result cache, hashCombine feeds identities that
// live on disk (configHash, sceneHash, cache keys), so its collision
// and avalanche behaviour — and its exact output — are contracts, not
// implementation details.

TEST(HashCombine, InjectiveInNewFieldForFixedAccumulator)
{
    // The property chained key-hashing actually relies on: for any
    // fixed accumulator a, x -> hashCombine(a, x) is a bijection
    // (x + K is, XOR-with-a is, and the splitmix64 finalizer is), so
    // two keys differing in one field can never collide at the fold
    // that consumes it.
    for (const std::uint64_t acc :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0x5cee4a5},
          ~std::uint64_t{0}}) {
        std::unordered_set<std::uint64_t> seen;
        for (std::uint64_t b = 0; b < 65536; ++b)
            seen.insert(hashCombine(acc, b));
        EXPECT_EQ(seen.size(), 65536u) << "accumulator " << acc;
    }
}

TEST(HashCombine, NoCollisionsWhenChainedFromBasis)
{
    // Config/scene hashing chains small integers (core counts, tile
    // sizes, resolutions) from a fixed basis, exactly like
    // snapshotSceneHash. The dense small-value grid is the real input
    // population; after the basis fold the accumulator is well mixed,
    // so the full 256x256 grid must stay collision-free — and order
    // matters, since (a,b) and (b,a) land on different slots.
    std::unordered_set<std::uint64_t> seen;
    for (std::uint64_t a = 0; a < 256; ++a)
        for (std::uint64_t b = 0; b < 256; ++b)
            seen.insert(hashCombine(hashCombine(0x5cee4a5ull, a), b));
    EXPECT_EQ(seen.size(), 256u * 256u);

    std::unordered_set<std::uint64_t> ordered;
    for (std::uint64_t x = 0; x < 64; ++x)
        for (std::uint64_t y = 0; y < 64; ++y)
            ordered.insert(hashCombine(hashCombine(1, x), y));
    EXPECT_EQ(ordered.size(), 64u * 64u);
}

TEST(HashCombine, DirectSmallPairsPigeonholeBeforeTheFinalizer)
{
    // The audit's caveat, pinned so nobody "fixes" a persistent key
    // into this shape: combining two *small* values directly squeezes
    // a ^ (b + K + (a<<6) + (a>>2)) into a ~17k-value window before
    // the finalizer, so the 65536-pair dense grid collides massively.
    // Harmless where it is used (cosmetic workload-position hashes in
    // scene.cc); fatal if a persistent cache key ever did it. Keys
    // must chain from a mixed basis instead (previous test).
    std::unordered_set<std::uint64_t> seen;
    for (std::uint64_t a = 0; a < 256; ++a)
        for (std::uint64_t b = 0; b < 256; ++b)
            seen.insert(hashCombine(a, b));
    EXPECT_EQ(seen.size(), 16627u); // deterministic, and far below 65536
}

TEST(HashCombine, AvalancheOnSingleBitFlips)
{
    // splitmix64 finalizer: flipping one input bit should flip roughly
    // half the output bits. Average over a spread of bases and all 128
    // flippable bits; also bound each individual flip away from the
    // degenerate few-bit regime.
    const std::uint64_t bases[] = {0, 1, 0x12345678u,
                                   0x9e3779b97f4a7c15ull,
                                   ~std::uint64_t{0}};
    double total = 0.0;
    int samples = 0;
    int worst = 64;
    for (const std::uint64_t a : bases) {
        for (const std::uint64_t b : bases) {
            const std::uint64_t h = hashCombine(a, b);
            for (int bit = 0; bit < 64; ++bit) {
                const int fa = std::popcount(
                    h ^ hashCombine(a ^ (1ull << bit), b));
                const int fb = std::popcount(
                    h ^ hashCombine(a, b ^ (1ull << bit)));
                total += fa + fb;
                samples += 2;
                worst = std::min({worst, fa, fb});
            }
        }
    }
    const double mean = total / samples;
    EXPECT_GT(mean, 28.0);
    EXPECT_LT(mean, 36.0);
    EXPECT_GE(worst, 10); // no near-identity flip anywhere in the set
}

TEST(HashCombine, PinnedOutputs)
{
    // The mixer's exact output is load-bearing: every snapshot and
    // cached report on disk is keyed through it. If this
    // test fails, you changed the mixer — bump kSnapshotCodeVersion
    // AND kResultCacheCodeVersion in the same commit (see rng.hh).
    EXPECT_EQ(hashCombine(0, 0), 0x6e789e6aa1b965f4ull);
    EXPECT_EQ(hashCombine(1, 2), 0xa3efbcce2e044f84ull);
    EXPECT_EQ(hashCombine(2, 1), 0x88a32f63162d1170ull);
    EXPECT_EQ(hashCombine(~std::uint64_t{0}, ~std::uint64_t{0}),
              0x8d63a8fdfcda5d88ull);
}
