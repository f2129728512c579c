#include "gpu/runner.hh"

#include <cmath>
#include <filesystem>
#include <memory>
#include <utility>

#include "check/snapshot.hh"
#include "common/log.hh"
#include "sim/sweep_journal.hh"
#include "trace/json.hh"

namespace libra
{

std::uint64_t
RunResult::totalCycles() const
{
    std::uint64_t total = 0;
    for (const auto &fs : frames)
        total += fs.totalCycles;
    return total;
}

std::uint64_t
RunResult::totalRasterCycles() const
{
    std::uint64_t total = 0;
    for (const auto &fs : frames)
        total += fs.rasterCycles;
    return total;
}

std::uint64_t
RunResult::totalGeomCycles() const
{
    std::uint64_t total = 0;
    for (const auto &fs : frames)
        total += fs.geomCycles;
    return total;
}

std::uint64_t
RunResult::dramAccesses() const
{
    std::uint64_t total = 0;
    for (const auto &fs : frames)
        total += fs.dramReads + fs.dramWrites;
    return total;
}

std::uint64_t
RunResult::textureRequests() const
{
    std::uint64_t total = 0;
    for (const auto &fs : frames)
        total += fs.textureRequests;
    return total;
}

double
RunResult::avgTextureLatency() const
{
    double weighted = 0.0;
    std::uint64_t reqs = 0;
    for (const auto &fs : frames) {
        weighted += fs.avgTextureLatency
            * static_cast<double>(fs.textureRequests);
        reqs += fs.textureRequests;
    }
    return reqs == 0 ? 0.0 : weighted / static_cast<double>(reqs);
}

double
RunResult::textureHitRatio() const
{
    std::uint64_t misses = 0;
    std::uint64_t accesses = 0;
    for (const auto &fs : frames) {
        misses += fs.textureMisses;
        accesses += fs.textureL1Accesses;
    }
    if (accesses == 0)
        return 1.0;
    return 1.0
        - static_cast<double>(misses) / static_cast<double>(accesses);
}

double
RunResult::avgDramReadLatency() const
{
    double weighted = 0.0;
    std::uint64_t reads = 0;
    for (const auto &fs : frames) {
        weighted += fs.avgDramReadLatency
            * static_cast<double>(fs.dramReads);
        reads += fs.dramReads;
    }
    return reads == 0 ? 0.0 : weighted / static_cast<double>(reads);
}

double
RunResult::totalEnergyMj() const
{
    double total = 0.0;
    for (const auto &fs : frames)
        total += fs.energy.totalMj;
    return total;
}

double
RunResult::avgReplicationRatio() const
{
    if (frames.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &fs : frames)
        total += fs.replicationRatio;
    return total / static_cast<double>(frames.size());
}

double
RunResult::fps(double clock_hz) const
{
    const std::uint64_t cycles = totalCycles();
    if (cycles == 0 || frames.empty())
        return 0.0;
    const double seconds = static_cast<double>(cycles) / clock_hz;
    return static_cast<double>(frames.size()) / seconds;
}

namespace
{

/** Entrywise-add @p from into @p into (counter names are identical for
 *  every Gpu instance built from one config). */
void
accumulateCounters(std::map<std::string, std::uint64_t> &into,
                   const std::map<std::string, std::uint64_t> &from)
{
    for (const auto &[name, value] : from)
        into[name] += value;
}

std::uint64_t
sceneHashOf(const Scene &scene, const GpuConfig &cfg)
{
    return snapshotSceneHash(scene.spec().abbrev, cfg.screenWidth,
                             cfg.screenHeight);
}

/** The header keying a run of @p cfg over @p scene from @p first_frame
 *  after @p frames_done frames. */
SnapshotHeader
runKey(const Scene &scene, const GpuConfig &cfg,
       std::uint32_t first_frame, std::uint32_t frames_done)
{
    SnapshotHeader key;
    key.configHash = cfg.configHash();
    key.warmPrefixHash = cfg.warmPrefixHash();
    key.sceneHash = sceneHashOf(scene, cfg);
    key.firstFrame = first_frame;
    key.framesDone = frames_done;
    return key;
}

/** The checkpoint file of @p key inside the checkpoint dir @p dir. */
std::string
checkpointPath(const std::string &dir, const SnapshotHeader &key)
{
    return (std::filesystem::path(dir)
            / keyedSnapshotFileName("ckpt", key, ".lsnp"))
        .string();
}

/** Complete `libra.snapshot/1` image of a run paused at @p key:
 *  run-so-far + trace + machine sections. */
std::vector<std::uint8_t>
buildSnapshot(const SnapshotHeader &key, const RunResult &result,
              const Gpu &gpu)
{
    SnapshotWriter w(key);
    w.beginSection(SnapSection::Result);
    JsonWriter json;
    runResultToJson(json, result);
    w.putString(json.str());
    w.endSection();

    w.beginSection(SnapSection::Trace);
    w.putBool(result.trace != nullptr);
    if (result.trace)
        result.trace->exportState(w);
    w.endSection();

    gpu.saveState(w);
    return w.finish();
}

/**
 * Rebuild (result, gpu) from a snapshot image. Returns the number of
 * frames already done on success. Key mismatches (config, scene, frame
 * range, code version) are FailedPrecondition, structural damage is
 * CorruptData — the caller treats both as "fall back to a cold run".
 */
Result<std::uint32_t>
restoreFromSnapshot(std::vector<std::uint8_t> bytes, const Scene &scene,
                    const GpuConfig &cfg, std::uint32_t frames,
                    std::uint32_t first_frame, RunResult &result,
                    std::unique_ptr<Gpu> &gpu)
{
    Result<SnapshotReader> parsed =
        SnapshotReader::parse(std::move(bytes));
    if (!parsed.isOk())
        return parsed.status();
    SnapshotReader r = std::move(*parsed);

    const SnapshotHeader &h = r.header();
    if (h.codeVersion != kSnapshotCodeVersion) {
        return Status::error(ErrorCode::FailedPrecondition,
                             "snapshot code version ", h.codeVersion,
                             " does not match this build's ",
                             kSnapshotCodeVersion);
    }
    // The exact config, or one sharing the warm prefix (the adaptive
    // thresholds pinned out of warmPrefixHash first matter after the
    // prefix frames, which therefore rendered byte-identically).
    if (h.configHash != cfg.configHash()
        && h.warmPrefixHash != cfg.warmPrefixHash()) {
        return Status::error(ErrorCode::FailedPrecondition,
                             "snapshot was written by a different GPU "
                             "configuration");
    }
    if (h.sceneHash != sceneHashOf(scene, cfg)) {
        return Status::error(ErrorCode::FailedPrecondition,
                             "snapshot was written for a different "
                             "scene");
    }
    if (h.firstFrame != first_frame) {
        return Status::error(ErrorCode::FailedPrecondition,
                             "snapshot first frame ", h.firstFrame,
                             " does not match the requested ",
                             first_frame);
    }
    if (h.framesDone > frames) {
        return Status::error(ErrorCode::FailedPrecondition,
                             "snapshot already rendered ", h.framesDone,
                             " frames, more than the requested ",
                             frames);
    }

    r.openSection(SnapSection::Result);
    const std::string result_json = r.takeString();
    r.closeSection();
    if (!r.ok())
        return r.status();
    Result<JsonValue> doc = parseJson(result_json);
    if (!doc.isOk()) {
        return Status::error(ErrorCode::CorruptData,
                             "snapshot result section: ",
                             doc.status().message());
    }
    Result<RunResult> saved = runResultFromJson(*doc);
    if (!saved.isOk())
        return saved.status();
    RunResult restored = std::move(*saved);
    restored.config = cfg;
    if (restored.frames.size() + restored.skippedFrames.size()
        != h.framesDone) {
        return Status::error(ErrorCode::CorruptData,
                             "snapshot claims ", h.framesDone,
                             " frames done but carries ",
                             restored.frames.size(), " + ",
                             restored.skippedFrames.size(),
                             " frame records");
    }

    r.openSection(SnapSection::Trace);
    const bool has_trace = r.takeBool();
    if (has_trace != cfg.traceEvents) {
        return Status::error(ErrorCode::FailedPrecondition,
                             "snapshot trace presence does not match "
                             "GpuConfig::traceEvents");
    }
    if (has_trace) {
        // Import before setTraceSink: the lanes must exist, in saved
        // order, so the Gpu's lane lookups find them by name and lane
        // ids stay stable across the restore.
        restored.trace = std::make_shared<TraceSink>();
        restored.trace->importState(r);
    }
    r.closeSection();
    if (!r.ok())
        return r.status();

    auto fresh = std::make_unique<Gpu>(cfg);
    fresh->setTraceSink(restored.trace.get());
    if (Status st = fresh->loadState(r); !st.isOk())
        return st;
    if (Status st = r.finish(); !st.isOk())
        return st;

    result = std::move(restored);
    gpu = std::move(fresh);
    return h.framesDone;
}

/**
 * Dir-based restore: the freshest checkpoint of this run's key, tried
 * by file name from @p frames frames done down to 1. The first file
 * found decides (restore, or an error for the caller to warn about); a
 * NotFound return means none exists (silent cold start).
 */
Result<std::uint32_t>
restoreFromDir(const std::string &dir, const Scene &scene,
               const GpuConfig &cfg, std::uint32_t frames,
               std::uint32_t first_frame, RunResult &result,
               std::unique_ptr<Gpu> &gpu)
{
    for (SnapshotHeader key = runKey(scene, cfg, first_frame, frames);
         key.framesDone > 0; --key.framesDone) {
        Result<std::vector<std::uint8_t>> bytes =
            readSnapshotFile(checkpointPath(dir, key));
        if (bytes.isOk()) {
            return restoreFromSnapshot(std::move(*bytes), scene, cfg,
                                       frames, first_frame, result, gpu);
        }
        if (bytes.status().code() != ErrorCode::NotFound)
            return bytes.status();
    }
    return Status::error(ErrorCode::NotFound, "no checkpoint in ", dir);
}

/** Frame-boundary checkpoint hook: capture the warm-prefix image
 *  and/or publish a periodic checkpoint file. Write failures degrade
 *  to a warning — checkpointing must never change a run's outcome. */
void
maybeCheckpoint(const CheckpointPlan &plan, const Scene &scene,
                const GpuConfig &cfg, const RunResult &result,
                const Gpu &gpu, std::uint32_t first_frame,
                std::uint32_t frames_done, std::uint32_t frames_total)
{
    if (plan.captureAfter && frames_done == plan.captureAfterFrames) {
        *plan.captureAfter = buildSnapshot(
            runKey(scene, cfg, first_frame, frames_done), result, gpu);
    }
    if (plan.dir.empty() || plan.every == 0 || frames_done == 0
        || frames_done % plan.every != 0
        || frames_done >= frames_total) {
        return; // the final frame needs no checkpoint: the run is done
    }
    const SnapshotHeader key =
        runKey(scene, cfg, first_frame, frames_done);
    const std::vector<std::uint8_t> bytes =
        buildSnapshot(key, result, gpu);
    // Plan setup already validated the directory once; re-creating it
    // here covers a mid-run deletion. The error contract is the same:
    // warn, skip the write, never change the run's outcome.
    std::error_code ec;
    std::filesystem::create_directories(plan.dir, ec);
    if (ec) {
        warn("checkpoint: cannot create directory ", plan.dir, ": ",
             ec.message(), " — skipping snapshot at frame ",
             first_frame + frames_done);
        return;
    }
    if (Status st =
            writeSnapshotFile(checkpointPath(plan.dir, key), bytes);
        !st.isOk()) {
        warn("checkpoint: ", st.toString());
    }
}

} // namespace

Status
validateForBenchmark(const BenchmarkSpec &spec, const GpuConfig &cfg)
{
    if (Status st = cfg.validate(); !st.isOk()) {
        return Status::error(st.code(), "benchmark ", spec.abbrev,
                             ": invalid GPU configuration: ",
                             st.message());
    }
    return Status::ok();
}

Result<RunResult>
runBenchmark(const Scene &scene, const GpuConfig &cfg,
             std::uint32_t frames, std::uint32_t first_frame,
             const CheckpointPlan &checkpoint)
{
    const BenchmarkSpec &spec = scene.spec();
    if (Status st = validateForBenchmark(spec, cfg); !st.isOk())
        return st;
    if (scene.screenWidth() != cfg.screenWidth
        || scene.screenHeight() != cfg.screenHeight) {
        return Status::error(ErrorCode::InvalidArgument, "benchmark ",
                             spec.abbrev, ": scene built for ",
                             scene.screenWidth(), "x",
                             scene.screenHeight(),
                             " does not match configured ",
                             cfg.screenWidth, "x", cfg.screenHeight);
    }

    // Surface an unusable checkpoint directory once, at plan setup,
    // instead of silently ignoring the create_directories error on
    // every frame. Warn-only: checkpointing must never change a run's
    // outcome, so the run proceeds with periodic snapshots disabled.
    CheckpointPlan plan = checkpoint;
    if (!plan.dir.empty() && plan.every != 0) {
        std::error_code ec;
        std::filesystem::create_directories(plan.dir, ec);
        if (ec) {
            warn("benchmark ", spec.abbrev,
                 ": cannot create checkpoint directory ", plan.dir,
                 ": ", ec.message(),
                 " — periodic checkpoints disabled for this run");
            plan.every = 0;
        }
    }

    RunResult result;
    result.benchmark = spec.abbrev;
    result.config = cfg;

    // --- Restore: warm-start bytes first, then the checkpoint dir ----
    // Every restore failure except "nothing there" warns and degrades
    // to a cold run; a snapshot can speed a run up, never break it.
    std::unique_ptr<Gpu> gpu;
    std::uint32_t start = 0;
    if (checkpoint.warmStart
        || (!checkpoint.dir.empty() && checkpoint.restore)) {
        Result<std::uint32_t> restored = checkpoint.warmStart
            ? restoreFromSnapshot(*checkpoint.warmStart, scene, cfg,
                                  frames, first_frame, result, gpu)
            : restoreFromDir(checkpoint.dir, scene, cfg, frames,
                             first_frame, result, gpu);
        if (restored.isOk()) {
            start = *restored;
        } else if (restored.status().code() != ErrorCode::NotFound) {
            warn("benchmark ", spec.abbrev,
                 ": checkpoint restore failed, falling back to a cold "
                 "run: ", restored.status().toString());
            result = RunResult{};
            result.benchmark = spec.abbrev;
            result.config = cfg;
            gpu.reset();
        }
    }
    if (!gpu) {
        if (cfg.traceEvents)
            result.trace = std::make_shared<TraceSink>();
        gpu = std::make_unique<Gpu>(cfg);
        gpu->setTraceSink(result.trace.get());
        start = 0;
    }

    result.frames.reserve(frames);
    for (std::uint32_t f = start; f < frames; ++f) {
        const FrameData frame = scene.frame(first_frame + f);
        Result<FrameStats> fs =
            gpu->tryRenderFrame(frame, scene.textures());
        if (fs.isOk()) {
            result.frames.push_back(std::move(*fs));
        } else {
            const ErrorCode code = fs.status().code();
            if (code != ErrorCode::WatchdogExpired
                && code != ErrorCode::NoProgress) {
                return fs.status();
            }
            // Watchdog fired: degrade gracefully — drop this frame,
            // rebuild the wedged GPU and carry on with the sweep. The
            // wedged instance's counters are merged first: work done
            // before the rebuild (including the aborted frame's
            // partial progress) must survive into the run totals.
            warn("benchmark ", spec.abbrev, ": skipping frame ",
                 first_frame + f, ": ", fs.status().toString());
            result.skippedFrames.push_back(first_frame + f);
            accumulateCounters(result.counters, gpu->stats().values());
            gpu = std::make_unique<Gpu>(cfg);
            gpu->setTraceSink(result.trace.get());
        }
        if (plan.enabled()) {
            maybeCheckpoint(plan, scene, cfg, result, *gpu,
                            first_frame, f + 1, frames);
        }
    }
    accumulateCounters(result.counters, gpu->stats().values());
    return result;
}

Result<RunResult>
runBenchmark(const BenchmarkSpec &spec, const GpuConfig &cfg,
             std::uint32_t frames, std::uint32_t first_frame)
{
    if (Status st = validateForBenchmark(spec, cfg); !st.isOk())
        return st;
    const Scene scene(spec, cfg.screenWidth, cfg.screenHeight);
    return runBenchmark(scene, cfg, frames, first_frame);
}

Result<double>
memoryTimeFraction(const BenchmarkSpec &spec, const GpuConfig &cfg,
                   std::uint32_t frames)
{
    GpuConfig ideal = cfg;
    ideal.idealMemory = true;
    const Result<RunResult> real = runBenchmark(spec, cfg, frames);
    if (!real.isOk())
        return real.status();
    const Result<RunResult> perfect = runBenchmark(spec, ideal, frames);
    if (!perfect.isOk())
        return perfect.status();
    const auto real_cycles = static_cast<double>(real->totalCycles());
    const auto ideal_cycles =
        static_cast<double>(perfect->totalCycles());
    if (real_cycles <= 0.0)
        return 0.0;
    return std::max(0.0, 1.0 - ideal_cycles / real_cycles);
}

double
speedup(const RunResult &a, const RunResult &b)
{
    const auto b_cycles = static_cast<double>(b.totalCycles());
    return b_cycles == 0.0
        ? 0.0
        : static_cast<double>(a.totalCycles()) / b_cycles;
}

double
geomean(const std::vector<double> &values)
{
    // Non-positive entries (a zero-cycle run, a failed data point) are
    // skipped with a warning instead of aborting: one bad sample should
    // degrade the average, not kill a whole results table.
    std::size_t used = 0;
    double log_sum = 0.0;
    for (const double v : values) {
        if (!(v > 0.0)) {
            warn("geomean: skipping non-positive value ", v);
            continue;
        }
        log_sum += std::log(v);
        ++used;
    }
    if (used == 0)
        return 0.0;
    return std::exp(log_sum / static_cast<double>(used));
}

} // namespace libra
