/**
 * @file
 * Differential-equivalence and fuzzing driver for CI.
 *
 * Default mode runs the equivalence matrix: pairs of configurations
 * that describe the same machine through different code paths must
 * produce bit-identical counter dumps —
 *
 *   ptr(1, N)                      == baseline(N)
 *   libra, adaptation pinned to S  == staticSupertile(S)
 *   staticSupertile(1)             == ptr (plain Z-order)
 *
 * With --policies 1, it runs the policy-extraction matrix instead:
 * every entry of the policy registry, applied by name to a base config
 * whose Libra-only adaptive knobs are deliberately perturbed, must be
 * counter-identical to the hand-built factory config for that policy.
 * This pins two contracts at once: applyPolicy() touches exactly the
 * documented fields, and each policy object reads only its own knobs
 * (the refactor that extracted SchedulingPolicy from TileScheduler is
 * a pure extraction — unused knobs cannot leak into behavior).
 *
 * With --fuzz N (and optionally --seed S), it instead sweeps N
 * randomized valid configurations through the runner with every
 * conservation law armed; any accounting violation fails the run.
 *
 * With --checkpoint-fuzz N (and optionally --seed S), it draws N
 * random (config, scene, checkpoint frame) triples and asserts the
 * snapshot restore contract (DESIGN.md §10) on each: rendering the
 * first F frames, snapshotting, and forking a fresh run from the
 * restored state must produce a full counter dump identical to the
 * uninterrupted cold run.
 *
 * Exits non-zero on the first mismatch or violation, so CI can gate on
 * it directly.
 */

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "check/config_fuzzer.hh"
#include "common/rng.hh"
#include "gpu/policy_registry.hh"

using namespace libra;
using namespace libra::bench;

namespace
{

/** LIBRA with the §III-D adaptation pinned: one legal supertile size
 *  and thresholds no observation can cross. Must equal
 *  staticSupertile(s). */
GpuConfig
pinnedLibra(std::uint32_t s)
{
    GpuConfig cfg = GpuConfig::libra(2, 4);
    cfg.sched.minSupertileSize = s;
    cfg.sched.maxSupertileSize = s;
    cfg.sched.initialSupertileSize = s;
    cfg.sched.staticSupertileSize = s;
    cfg.sched.hitRatioThreshold = 0.0;
    cfg.sched.orderSwitchThreshold = 1e30;
    return cfg;
}

/** Counter-level diff; prints every differing entry. @return equal? */
bool
countersMatch(const std::string &label,
              const std::map<std::string, std::uint64_t> &a,
              const std::map<std::string, std::uint64_t> &b)
{
    bool ok = true;
    for (const auto &[name, value] : a) {
        const auto it = b.find(name);
        if (it == b.end()) {
            std::printf("MISMATCH %s: %s only on the left (%llu)\n",
                        label.c_str(), name.c_str(),
                        static_cast<unsigned long long>(value));
            ok = false;
        } else if (it->second != value) {
            std::printf("MISMATCH %s: %s %llu != %llu\n", label.c_str(),
                        name.c_str(),
                        static_cast<unsigned long long>(value),
                        static_cast<unsigned long long>(it->second));
            ok = false;
        }
    }
    for (const auto &[name, value] : b) {
        if (!a.count(name)) {
            std::printf("MISMATCH %s: %s only on the right (%llu)\n",
                        label.c_str(), name.c_str(),
                        static_cast<unsigned long long>(value));
            ok = false;
        }
    }
    return ok;
}

/** Arm the invariant layer on top of the bench's screen size. */
GpuConfig
checked(GpuConfig cfg, const BenchOptions &opt)
{
    cfg = sized(std::move(cfg), opt);
    cfg.checkInvariants = true;
    return cfg;
}

int
runEquivalenceMatrix(const BenchOptions &opt)
{
    banner("Differential equivalence (counter-identical pairs)");

    struct Pair
    {
        std::string name;
        GpuConfig left;
        GpuConfig right;
        std::size_t hLeft = 0, hRight = 0;
    };
    // Configs are finalized here (screen size, invariants);
    // add() below submits them verbatim.
    std::vector<Pair> pairs;
    pairs.push_back({"ptr(1,8) == baseline(8)",
                     checked(GpuConfig::ptr(1, 8), opt),
                     checked(GpuConfig::baseline(8), opt)});
    for (const std::uint32_t s : {1u, 2u, 4u})
        pairs.push_back({"libra pinned to " + std::to_string(s)
                             + " == staticSupertile("
                             + std::to_string(s) + ")",
                         checked(pinnedLibra(s), opt),
                         checked(GpuConfig::staticSupertile(s, 2, 4),
                                 opt)});
    pairs.push_back({"staticSupertile(1) == z-order ptr(2,4)",
                     checked(GpuConfig::staticSupertile(1, 2, 4), opt),
                     checked(GpuConfig::ptr(2, 4), opt)});

    int failures = 0;
    for (const auto &name : opt.benchmarks) {
        const BenchmarkSpec &spec = findBenchmark(name);
        Sweep sweep(opt);
        for (auto &p : pairs) {
            p.hLeft = sweep.add(spec, p.left, opt.frames);
            p.hRight = sweep.add(spec, p.right, opt.frames);
        }
        sweep.run();
        if (sweep.exitCode() != 0) {
            // Failed jobs read as placeholders; comparing those would
            // vacuously "match". Count the sweep itself as a failure.
            std::printf("%-4s sweep had failed jobs\n", name.c_str());
            ++failures;
            continue;
        }
        for (const auto &p : pairs) {
            const bool ok = countersMatch(
                name + " / " + p.name, sweep[p.hLeft].counters,
                sweep[p.hRight].counters);
            std::printf("%-4s %-44s %s\n", name.c_str(),
                        p.name.c_str(), ok ? "ok" : "FAILED");
            failures += !ok;
        }
    }
    if (failures)
        std::printf("%d equivalence pair(s) FAILED\n", failures);
    else
        std::printf("all equivalence pairs counter-identical\n");
    return failures ? 1 : 0;
}

/**
 * The policy-extraction matrix: registry-applied configs versus
 * hand-built factory equivalents (see the file comment). The base for
 * non-Libra policies carries perturbed adaptive thresholds — knobs
 * only the Libra policy reads — so a counter match proves those knobs
 * are dead weight under every other policy.
 */
int
runPolicyMatrix(const BenchOptions &opt)
{
    banner("Policy extraction matrix (registry == hand-built)");

    // Libra base with the three adaptive knobs moved off their
    // defaults. Any policy that (incorrectly) read them would diverge
    // from the hand-built config below.
    GpuConfig perturbed = GpuConfig::libra(2, 4);
    perturbed.sched.hitRatioThreshold = 0.25;
    perturbed.sched.orderSwitchThreshold = 0.5;
    perturbed.sched.resizeThreshold = 0.5;

    struct Pair
    {
        std::string name;
        GpuConfig left;
        GpuConfig right;
        std::size_t hLeft = 0, hRight = 0;
    };
    std::vector<Pair> pairs;
    for (const PolicyInfo &p : policyRegistry()) {
        const bool is_libra = p.sched == SchedulerPolicy::Libra;
        // Libra reads the adaptive knobs for real, so its base keeps
        // the defaults and differs from the factory config only in the
        // fields applyPolicy() must overwrite.
        GpuConfig left = is_libra ? GpuConfig::ptr(2, 4) : perturbed;
        const Status st = applyPolicy(left, p.name);
        if (!st.isOk())
            fatal("applyPolicy(", p.name, "): ", st.toString());

        // Hand-built equivalent: factory where one exists, direct
        // field assignment otherwise. Never goes through the registry.
        GpuConfig right;
        switch (p.sched) {
        case SchedulerPolicy::Libra:
            right = GpuConfig::libra(2, 4);
            break;
        case SchedulerPolicy::StaticSupertile:
            right = GpuConfig::staticSupertile(
                perturbed.sched.staticSupertileSize, 2, 4);
            break;
        default:
            right = GpuConfig::ptr(2, 4);
            right.sched.policy = p.sched;
            break;
        }
        // The hand-built side keeps default adaptive knobs: for
        // non-Libra policies the two configs differ in those fields,
        // so a counter match proves the policy never reads them.
        right.renderingElimination = p.renderingElimination;
        pairs.push_back({std::string("--policy ") + p.name
                             + " == hand-built",
                         checked(left, opt), checked(right, opt)});
    }

    int failures = 0;
    for (const auto &name : opt.benchmarks) {
        const BenchmarkSpec &spec = findBenchmark(name);
        Sweep sweep(opt);
        for (auto &p : pairs) {
            p.hLeft = sweep.add(spec, p.left, opt.frames);
            p.hRight = sweep.add(spec, p.right, opt.frames);
        }
        sweep.run();
        if (sweep.exitCode() != 0) {
            std::printf("%-4s sweep had failed jobs\n", name.c_str());
            ++failures;
            continue;
        }
        for (const auto &p : pairs) {
            const bool ok = countersMatch(
                name + " / " + p.name, sweep[p.hLeft].counters,
                sweep[p.hRight].counters);
            std::printf("%-4s %-44s %s\n", name.c_str(),
                        p.name.c_str(), ok ? "ok" : "FAILED");
            failures += !ok;
        }
    }
    if (failures)
        std::printf("%d policy pair(s) FAILED\n", failures);
    else
        std::printf("all registry policies match hand-built configs\n");
    return failures ? 1 : 0;
}

int
runFuzz(const BenchOptions &opt, std::uint32_t count,
        std::uint64_t seed)
{
    banner("Config fuzz: " + std::to_string(count)
           + " randomized configs, seed " + std::to_string(seed)
           + ", invariants armed");

    Rng rng(seed);
    int job = 0;
    for (const auto &name : opt.benchmarks) {
        const BenchmarkSpec &spec = findBenchmark(name);
        // A job whose conservation laws fire fails its sweep slot; the
        // summary on stderr carries the violation message.
        Sweep sweep(opt);
        for (std::uint32_t i = 0; i < count; ++i) {
            sweep.add(spec, fuzzGpuConfig(rng, opt.width, opt.height),
                      opt.frames);
        }
        sweep.run();
        if (sweep.exitCode() != 0)
            return 1;
        job += static_cast<int>(count);
        std::printf("%-4s %u configs clean\n", name.c_str(), count);
    }
    std::printf("fuzz: %d simulations, no violations\n", job);
    return 0;
}

/**
 * Fork-vs-cold fuzz: @p count random (config, scene, checkpoint frame)
 * triples, each asserting that a run forked from a frame-F snapshot
 * finishes with the cold run's exact counter dump and frame stats.
 */
int
runCheckpointFuzz(const BenchOptions &opt, std::uint32_t count,
                  std::uint64_t seed)
{
    banner("Checkpoint fuzz: " + std::to_string(count)
           + " fork-vs-cold triples, seed " + std::to_string(seed));

    Rng rng(seed);
    SceneCache scenes;
    int failures = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
        // The triple under test: a scene, a valid random config, and a
        // checkpoint frame strictly inside the run.
        const std::string &name =
            opt.benchmarks[rng.below(opt.benchmarks.size())];
        const BenchmarkSpec &spec = findBenchmark(name);
        const GpuConfig cfg = fuzzGpuConfig(rng, opt.width, opt.height);
        const auto ckpt = static_cast<std::uint32_t>(
            rng.range(1, static_cast<std::int64_t>(opt.frames) - 1));
        const std::string label = "triple " + std::to_string(i) + " ["
            + name + " ckpt@" + std::to_string(ckpt) + "]";

        const std::shared_ptr<const Scene> scene =
            scenes.get(spec, cfg.screenWidth, cfg.screenHeight);

        Result<RunResult> cold =
            runBenchmark(*scene, cfg, opt.frames, 0);
        if (!cold.isOk())
            fatal(label, ": cold run: ", cold.status().toString());

        CheckpointPlan capture;
        capture.captureAfter =
            std::make_shared<std::vector<std::uint8_t>>();
        capture.captureAfterFrames = ckpt;
        Result<RunResult> prefix =
            runBenchmark(*scene, cfg, ckpt, 0, capture);
        if (!prefix.isOk())
            fatal(label, ": prefix run: ", prefix.status().toString());
        if (capture.captureAfter->empty())
            fatal(label, ": no snapshot captured at frame ", ckpt);

        CheckpointPlan fork;
        fork.warmStart = capture.captureAfter;
        Result<RunResult> forked =
            runBenchmark(*scene, cfg, opt.frames, 0, fork);
        if (!forked.isOk())
            fatal(label, ": forked run: ", forked.status().toString());

        bool ok = countersMatch(label, cold->counters,
                                forked->counters);
        if (cold->frames.size() != forked->frames.size()) {
            std::printf("MISMATCH %s: %zu frames cold, %zu forked\n",
                        label.c_str(), cold->frames.size(),
                        forked->frames.size());
            ok = false;
        } else {
            for (std::size_t f = 0; f < cold->frames.size(); ++f) {
                if (cold->frames[f].totalCycles
                    != forked->frames[f].totalCycles) {
                    std::printf(
                        "MISMATCH %s: frame %zu cycles %llu != %llu\n",
                        label.c_str(), f,
                        static_cast<unsigned long long>(
                            cold->frames[f].totalCycles),
                        static_cast<unsigned long long>(
                            forked->frames[f].totalCycles));
                    ok = false;
                }
            }
        }
        std::printf("%-40s %s\n", label.c_str(), ok ? "ok" : "FAILED");
        failures += !ok;
    }
    if (failures)
        std::printf("%d checkpoint triple(s) FAILED\n", failures);
    else
        std::printf("checkpoint fuzz: %u triples fork == cold\n",
                    count);
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> own_options{"fuzz", "checkpoint-fuzz",
                                               "seed", "policies"};
    const BenchOptions opt = parseBenchOptions(
        argc, argv, {"CCS", "SuS"}, defaultMemorySubset(), own_options);
    const CliArgs args(argc, argv, benchOptionNames(own_options));

    const std::uint64_t seed = args.getUint("seed", 2024);
    const auto fuzz =
        static_cast<std::uint32_t>(args.getUint("fuzz", 0));
    const auto ckpt_fuzz =
        static_cast<std::uint32_t>(args.getUint("checkpoint-fuzz", 0));
    if (fuzz > 0)
        return runFuzz(opt, fuzz, seed);
    if (ckpt_fuzz > 0)
        return runCheckpointFuzz(opt, ckpt_fuzz, seed);
    if (args.getUint("policies", 0) > 0)
        return runPolicyMatrix(opt);
    return runEquivalenceMatrix(opt);
}
