/**
 * @file
 * Scoreboard regression tests: the headline verdicts of EXPERIMENTS.md
 * asserted against live simulations, so a change that silently flips a
 * paper-reproduction conclusion (who wins, the sign of a correlation,
 * the rough magnitude of a gain) fails CI instead of rotting in a
 * markdown table.
 *
 * The bench binaries print the full-scale numbers; these tests re-run
 * a reduced sweep (fewer benchmarks than the benches) and check the
 * *shape* claims with generous bands:
 *
 *  - Fig. 11: LIBRA > PTR > baseline on the memory-intensive set, with
 *    a positive scheduler contribution (measured +7.6pp at bench
 *    scale).
 *  - Fig. 6: memory-time fraction vs PTR speedup correlates strongly
 *    negatively (measured r = -0.81; asserted r < -0.5).
 *  - Fig. 16: static supertile sizes recover only a small slice of
 *    LIBRA's gain over PTR (statics 0.9%-1.7% vs LIBRA 6.4% at bench
 *    scale).
 *
 * All runs execute once in a shared sweep (work-stealing pool, shared
 * scene cache) and every test reads from the cached results.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "gpu/gpu_config.hh"
#include "gpu/runner.hh"
#include "sim/sweep.hh"
#include "workload/benchmarks.hh"

using namespace libra;

namespace
{

constexpr std::uint32_t W = 960;
constexpr std::uint32_t H = 544;
constexpr std::uint32_t kFrames = 4;

const std::vector<std::string> &
memorySubset()
{
    static const std::vector<std::string> set{"AAt", "CCS", "HCR",
                                              "SuS"};
    return set;
}

const std::vector<std::string> &
computeSubset()
{
    static const std::vector<std::string> set{"GDL", "CrS", "MiN",
                                              "PoG"};
    return set;
}

/** Fig. 6 runs the benches' full default sets so the correlation is
 *  computed over the same 14 points as EXPERIMENTS.md. */
const std::vector<std::string> &
extraMemorySubset()
{
    static const std::vector<std::string> set{"CoC", "GrT", "Jet",
                                              "RoK"};
    return set;
}

const std::vector<std::string> &
extraComputeSubset()
{
    static const std::vector<std::string> set{"ArK", "ZuM"};
    return set;
}

GpuConfig
sized(GpuConfig cfg)
{
    cfg.screenWidth = W;
    cfg.screenHeight = H;
    return cfg;
}

/** Cycles over the steady frames (frame 0 is cold), as the benches
 *  compare them. */
std::uint64_t
steadyCycles(const RunResult &r)
{
    std::uint64_t total = 0;
    for (std::size_t i = 1; i < r.frames.size(); ++i)
        total += r.frames[i].totalCycles;
    return total;
}

double
steadySpeedup(const RunResult &base, const RunResult &other)
{
    return static_cast<double>(steadyCycles(base))
        / static_cast<double>(steadyCycles(other));
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (const double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double
pearson(const std::vector<double> &x, const std::vector<double> &y)
{
    const double mx = mean(x), my = mean(y);
    double cov = 0.0, vx = 0.0, vy = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        cov += (x[i] - mx) * (y[i] - my);
        vx += (x[i] - mx) * (x[i] - mx);
        vy += (y[i] - my) * (y[i] - my);
    }
    return vx > 0 && vy > 0 ? cov / std::sqrt(vx * vy) : 0.0;
}

/** Per-benchmark result handles into the shared sweep. */
struct Handles
{
    std::size_t base = 0;   //!< baseline GPU, 8 cores, 1 RU
    std::size_t ideal = 0;  //!< baseline with an ideal memory system
    std::size_t ptr = 0;    //!< PTR, 2 RUs x 4 cores
    std::size_t libra = 0;  //!< full LIBRA
    std::size_t static4 = 0; //!< static 4x4 supertiles (memory set)
    std::size_t static8 = 0; //!< static 8x8 supertiles (memory set)
};

struct ScoreboardData
{
    SweepOutcome sweep;
    std::vector<Handles> memory;  //!< parallel to memorySubset()
    std::vector<Handles> compute; //!< parallel to computeSubset()
    std::vector<Handles> extraMemory;  //!< extraMemorySubset()
    std::vector<Handles> extraCompute; //!< extraComputeSubset()

    const RunResult &
    operator[](std::size_t handle) const
    {
        const Result<RunResult> &r = sweep.jobs[handle].result;
        EXPECT_TRUE(r.isOk()) << r.status().toString();
        return *r;
    }
};

/** Runs the whole sweep once; every test reads the cached results. */
const ScoreboardData &
data()
{
    static const ScoreboardData d = [] {
        ScoreboardData out;
        std::vector<SweepJob> jobs;
        const auto add = [&jobs](const BenchmarkSpec &spec,
                                 GpuConfig cfg) {
            jobs.push_back(SweepJob{&spec, sized(cfg), kFrames, 0});
            return jobs.size() - 1;
        };

        GpuConfig ideal = GpuConfig::baseline(8);
        ideal.idealMemory = true;

        for (const std::string &name : memorySubset()) {
            const BenchmarkSpec &spec = findBenchmark(name);
            Handles h;
            h.base = add(spec, GpuConfig::baseline(8));
            h.ideal = add(spec, ideal);
            h.ptr = add(spec, GpuConfig::ptr(2, 4));
            h.libra = add(spec, GpuConfig::libra(2, 4));
            h.static4 = add(spec, GpuConfig::staticSupertile(4));
            h.static8 = add(spec, GpuConfig::staticSupertile(8));
            out.memory.push_back(h);
        }
        const auto addFig6Only =
            [&](const std::vector<std::string> &names,
                std::vector<Handles> &into) {
                for (const std::string &name : names) {
                    const BenchmarkSpec &spec = findBenchmark(name);
                    Handles h;
                    h.base = add(spec, GpuConfig::baseline(8));
                    h.ideal = add(spec, ideal);
                    h.ptr = add(spec, GpuConfig::ptr(2, 4));
                    into.push_back(h);
                }
            };
        addFig6Only(computeSubset(), out.compute);
        addFig6Only(extraMemorySubset(), out.extraMemory);
        addFig6Only(extraComputeSubset(), out.extraCompute);

        SweepRunner runner;
        SceneCache scenes;
        out.sweep =
            runner.runWithPolicy(std::move(jobs), SweepPolicy{}, &scenes);
        return out;
    }();
    return d;
}

} // namespace

/**
 * Fig. 11 verdict: on the memory-intensive set, PTR beats the baseline
 * and the adaptive scheduler adds a further gain on top (LIBRA > PTR >
 * baseline). EXPERIMENTS.md measured PTR +22.3% / LIBRA +29.9% at
 * bench scale; the bands here only pin the ordering and a loose
 * magnitude.
 */
TEST(Scoreboard, Fig11LibraBeatsPtrBeatsBaseline)
{
    const ScoreboardData &d = data();

    std::vector<double> ptr_s, libra_s;
    for (std::size_t i = 0; i < d.memory.size(); ++i) {
        const Handles &h = d.memory[i];
        const double sp = steadySpeedup(d[h.base], d[h.ptr]);
        const double sl = steadySpeedup(d[h.base], d[h.libra]);
        ptr_s.push_back(sp);
        libra_s.push_back(sl);
        // Per benchmark: parallel tile rendering must never lose to
        // the single-RU baseline on the memory-intensive set.
        EXPECT_GT(sp, 1.0) << memorySubset()[i] << ": PTR slower than "
                           << "baseline";
        EXPECT_GT(sl, 1.0) << memorySubset()[i]
                           << ": LIBRA slower than baseline";
    }

    const double mp = mean(ptr_s);
    const double ml = mean(libra_s);
    // Ordering: baseline < PTR < LIBRA on average.
    EXPECT_GT(mp, 1.05) << "PTR average speedup collapsed";
    EXPECT_GT(ml, mp + 0.01)
        << "adaptive scheduler no longer contributes on top of PTR "
           "(PTR " << mp << ", LIBRA " << ml << ")";
    // Magnitude sanity: nobody should suddenly claim 2x.
    EXPECT_LT(ml, 1.9) << "LIBRA speedup implausibly large";
}

/**
 * Fig. 6 verdict: the more memory-bound a benchmark (fraction of time
 * unexplained by an ideal memory system), the less PTR alone helps.
 * EXPERIMENTS.md measured r = -0.81; anything above -0.5 means the
 * motivating correlation is gone.
 */
TEST(Scoreboard, Fig6MemoryFractionAnticorrelatesWithPtrGain)
{
    const ScoreboardData &d = data();

    std::vector<double> frac, speedup;
    std::vector<double> mem_frac, comp_frac;
    const auto collect = [&](const std::vector<Handles> &set,
                             std::vector<double> &cls) {
        for (const Handles &h : set) {
            const double real =
                static_cast<double>(d[h.base].totalCycles());
            const double ideal =
                static_cast<double>(d[h.ideal].totalCycles());
            const double f = real <= 0.0
                ? 0.0
                : std::max(0.0, 1.0 - ideal / real);
            frac.push_back(f);
            cls.push_back(f);
            speedup.push_back(steadySpeedup(d[h.base], d[h.ptr]));
        }
    };
    collect(d.memory, mem_frac);
    collect(d.extraMemory, mem_frac);
    collect(d.compute, comp_frac);
    collect(d.extraCompute, comp_frac);
    ASSERT_EQ(frac.size(), 14u);

    // The memory-intensive set must be meaningfully more memory-bound
    // than the compute set under the paper's ideal-L1 methodology.
    EXPECT_GT(mean(mem_frac), 2.0 * mean(comp_frac))
        << "memory/compute split no longer separates (memory "
        << mean(mem_frac) << ", compute " << mean(comp_frac) << ")";

    const double r = pearson(frac, speedup);
    EXPECT_LT(r, -0.5)
        << "memory fraction vs PTR speedup correlation r=" << r
        << " (EXPERIMENTS.md: -0.81; paper: strongly negative)";
}

/**
 * Fig. 16 verdict: static supertile sizes capture only a small part of
 * what LIBRA's dynamic temperature-aware scheme gains over PTR.
 * EXPERIMENTS.md measured statics at 0.9%-1.7% vs LIBRA at 6.4% over
 * PTR.
 */
TEST(Scoreboard, Fig16StaticSupertilesTrailLibra)
{
    const ScoreboardData &d = data();

    std::vector<double> g4, g8, glibra;
    for (const Handles &h : d.memory) {
        const RunResult &ptr = d[h.ptr];
        g4.push_back(steadySpeedup(ptr, d[h.static4]) - 1.0);
        g8.push_back(steadySpeedup(ptr, d[h.static8]) - 1.0);
        glibra.push_back(steadySpeedup(ptr, d[h.libra]) - 1.0);
    }

    const double m4 = mean(g4);
    const double m8 = mean(g8);
    const double ml = mean(glibra);

    // LIBRA's dynamic scheme must gain meaningfully over PTR alone...
    EXPECT_GT(ml, 0.02) << "LIBRA gain over PTR collapsed (" << ml
                        << ")";
    EXPECT_LT(ml, 0.20) << "LIBRA gain over PTR implausibly large";
    // ...and every static size must trail it (the paper's point: no
    // fixed supertile size substitutes for temperature-aware dynamic
    // scheduling).
    EXPECT_LT(m4, ml) << "static 4x4 matches dynamic LIBRA";
    EXPECT_LT(m8, ml) << "static 8x8 matches dynamic LIBRA";
    // Statics hover near PTR: small gains or small losses, never the
    // dynamic scheme's band.
    EXPECT_GT(m4, -0.05);
    EXPECT_GT(m8, -0.05);
    EXPECT_LT(m4, ml - 0.01);
    EXPECT_LT(m8, ml - 0.01);
}
