/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * The workload generator must be bit-reproducible across runs and
 * platforms (the whole evaluation depends on comparing configurations on
 * identical frames), so we use our own splitmix64/xoshiro256** rather
 * than the implementation-defined std:: distributions.
 */

#ifndef LIBRA_COMMON_RNG_HH
#define LIBRA_COMMON_RNG_HH

#include <cstdint>

namespace libra
{

/** splitmix64 step, used for seeding and hashing. */
constexpr std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Stateless 64-bit mix of two values: boost-style combine folded
 * through the splitmix64 finalizer.
 *
 * Originally for per-entity derived seeds; since the sim-farm this also
 * feeds every *persistent* identity — GpuConfig::configHash(),
 * snapshotSceneHash() and through them the result-cache and snapshot
 * keys on disk. Two contracts follow:
 *
 *  - **Quality**: for any fixed accumulator a, x -> hashCombine(a, x)
 *    is a bijection, so a chained key hash never collides at the fold
 *    that consumes a differing field, and chains seeded from a fixed
 *    basis stay collision-free over dense small-integer fields; the
 *    splitmix64 finalizer adds full avalanche (~32 of 64 output bits
 *    flip per single-bit input flip). Caveat: combining two *small*
 *    values directly (both args < ~2^8) pigeonholes the pre-finalizer
 *    state into a narrow window and collides heavily — fine for the
 *    cosmetic position hashes in scene.cc, never acceptable for a
 *    persistent key, which must chain from a mixed basis. test_rng
 *    locks all of this down.
 *  - **Stability**: changing this mixer silently invalidates every
 *    snapshot and cached report on disk. If it must change, bump
 *    kSnapshotCodeVersion and kResultCacheCodeVersion in the same
 *    commit so stale entries are refused instead of mis-keyed.
 */
constexpr std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
    return splitmix64(s);
}

/**
 * xoshiro256** generator. Small, fast, and good enough statistically for
 * workload synthesis.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 1)
    {
        std::uint64_t sm = seed;
        for (auto &word : s)
            word = splitmix64(sm);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). Returns 0 when n == 0. */
    std::uint64_t
    below(std::uint64_t n)
    {
        return n == 0 ? 0 : next() % n;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        if (hi <= lo)
            return lo;
        return lo + static_cast<std::int64_t>(
                below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** Approximate standard normal via sum of uniforms (Irwin-Hall). */
    double
    gaussian()
    {
        double acc = 0.0;
        for (int i = 0; i < 12; ++i)
            acc += uniform();
        return acc - 6.0;
    }

    /** Bernoulli draw with probability @p p. */
    bool chance(double p) { return uniform() < p; }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4];
};

} // namespace libra

#endif // LIBRA_COMMON_RNG_HH
