/**
 * @file
 * High-level harness: run a benchmark for N frames on a GPU
 * configuration and aggregate the per-frame statistics. This is the
 * entry point the examples and all the bench binaries share.
 */

#ifndef LIBRA_GPU_RUNNER_HH
#define LIBRA_GPU_RUNNER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hh"
#include "gpu/gpu.hh"
#include "gpu/gpu_config.hh"
#include "sim/trace_sink.hh"
#include "workload/benchmarks.hh"
#include "workload/scene.hh"

namespace libra
{

/** Aggregated result of one (benchmark, config) run. */
struct RunResult
{
    std::string benchmark;
    GpuConfig config;
    std::vector<FrameStats> frames;

    /**
     * Frames the watchdog gave up on (absolute frame indices). Empty
     * unless GpuConfig::watchdog is armed and fired; skipped frames do
     * not contribute to the aggregates below.
     */
    std::vector<std::uint32_t> skippedFrames;

    /**
     * Full cumulative counter dump of the run ("gpu.ru0.phase_shade"
     * → cycles, ...). Sorted by name; identical simulations produce
     * identical dumps, which is what the determinism suite locks down.
     * When the run rebuilt the GPU mid-sweep (watchdog), the dumps of
     * every instance are summed entrywise, so counters accumulated
     * before a rebuild — including the skipped frame's partial work —
     * are never lost.
     */
    std::map<std::string, std::uint64_t> counters;

    /** Event timeline; non-null iff GpuConfig::traceEvents was set. */
    std::shared_ptr<TraceSink> trace;

    std::uint64_t totalCycles() const;
    std::uint64_t totalGeomCycles() const;
    std::uint64_t dramAccesses() const;
    double avgTextureLatency() const;   //!< request-weighted
    double textureHitRatio() const;     //!< over all frames
    double avgDramReadLatency() const;  //!< read-weighted
    double totalEnergyMj() const;
    double avgReplicationRatio() const;

    /** Frames per second at @p clock_hz (Table I: 800 MHz). */
    double fps(double clock_hz = 800e6) const;
};

/**
 * Checkpointing directives for one runBenchmark() call. All defaults
 * off: the run is a plain cold run. The restore contract is byte
 * identity — a run restored at frame F finishes with counter dumps,
 * reports and Chrome traces identical to the uninterrupted run — and
 * every restore failure (missing file, corrupt image, key mismatch)
 * degrades to a cold run with a warning, never an error.
 */
struct CheckpointPlan
{
    /** Snapshot directory (created on demand); empty disables both
     *  writing and dir-based restore. */
    std::string dir;

    /** Write a snapshot into @ref dir every N finished frames; 0
     *  writes none. */
    std::uint32_t every = 0;

    /** Restore from the freshest usable snapshot in @ref dir (matching
     *  config hash, scene hash, code version and first frame, with
     *  framesDone <= the requested frame count). */
    bool restore = false;

    /**
     * In-memory warm-start image (sweep warm-prefix forking): restore
     * from these bytes instead of @ref dir. The image may come from a
     * config differing only in the adaptive thresholds — the header's
     * warmPrefixHash proves the prefix frames were byte-identical.
     */
    std::shared_ptr<const std::vector<std::uint8_t>> warmStart;

    /** When set, capture a snapshot image into *captureAfter once
     *  captureAfterFrames frames have finished (warm-prefix record). */
    std::shared_ptr<std::vector<std::uint8_t>> captureAfter;
    std::uint32_t captureAfterFrames = 0;

    bool
    enabled() const
    {
        return !dir.empty() || warmStart != nullptr
            || captureAfter != nullptr;
    }
};

/**
 * cfg.validate(), attributed to @p spec: ok, or the error whose message
 * reads "benchmark <abbrev>: invalid GPU configuration: <reason>". Both
 * runBenchmark overloads return it on entry, and a sweep job returns it
 * before its scene is fetched.
 */
Status validateForBenchmark(const BenchmarkSpec &spec,
                            const GpuConfig &cfg);

/**
 * Render @p frames frames of @p spec under @p cfg.
 *
 * Validates @p cfg first (InvalidArgument on a bad configuration). If
 * the per-frame watchdog (GpuConfig::watchdog) fires, the wedged frame
 * is recorded in RunResult::skippedFrames, the GPU is rebuilt and the
 * sweep continues with the next frame — a corrupt or pathological
 * frame degrades one data point, not the whole batch.
 */
Result<RunResult> runBenchmark(const BenchmarkSpec &spec,
                               const GpuConfig &cfg,
                               std::uint32_t frames,
                               std::uint32_t first_frame = 0);

/**
 * Same, over an already-built scene, under a checkpoint plan (snapshot
 * writing and/or restore; the default plan is a plain cold run).
 * @p scene must match the configuration's screen size; it is only
 * read, so several runs (e.g. the configs of one sweep, possibly on
 * different threads) can share one Scene instead of regenerating
 * geometry and textures per config.
 */
Result<RunResult> runBenchmark(const Scene &scene, const GpuConfig &cfg,
                               std::uint32_t frames,
                               std::uint32_t first_frame = 0,
                               const CheckpointPlan &checkpoint = {});

/**
 * Fraction of execution time attributable to memory: 1 - ideal/real,
 * where "ideal" re-runs the same frames with every access hitting in L1
 * — the Fig. 6a methodology. The paper calls a benchmark
 * memory-intensive when this is >= 0.25.
 */
Result<double> memoryTimeFraction(const BenchmarkSpec &spec,
                                  const GpuConfig &cfg,
                                  std::uint32_t frames);

/** speedup of b over a: cycles(a)/cycles(b). */
double speedup(const RunResult &a, const RunResult &b);

} // namespace libra

#endif // LIBRA_GPU_RUNNER_HH
