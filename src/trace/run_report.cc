#include "trace/run_report.hh"

#include "gpu/policy_registry.hh"
#include "trace/json.hh"

namespace libra
{

namespace
{

void
writeConfig(JsonWriter &w, const RunResult &result)
{
    const GpuConfig &cfg = result.config;
    w.beginObject();
    w.key("benchmark");
    w.value(result.benchmark);
    w.key("screen_width");
    w.value(cfg.screenWidth);
    w.key("screen_height");
    w.value(cfg.screenHeight);
    w.key("tile_size");
    w.value(cfg.tileSize);
    w.key("raster_units");
    w.value(cfg.rasterUnits);
    w.key("cores_per_ru");
    w.value(cfg.coresPerRu);
    w.key("warps_per_core");
    w.value(cfg.warpsPerCore);
    w.key("scheduler");
    w.value(policyNameFor(cfg));
    w.key("ideal_memory");
    w.value(cfg.idealMemory);
    w.key("transaction_elimination");
    w.value(cfg.transactionElimination);
    w.key("trace_events");
    w.value(cfg.traceEvents);
    w.key("dram_timeline_interval");
    w.value(kDramTimelineInterval);
    w.key("frames");
    w.value(static_cast<std::uint64_t>(result.frames.size()));
    w.endObject();
}

void
writeFrame(JsonWriter &w, const FrameStats &fs)
{
    w.beginObject();
    w.key("index");
    w.value(fs.frameIndex);
    w.key("total_cycles");
    w.value(static_cast<std::uint64_t>(fs.totalCycles));
    w.key("geom_cycles");
    w.value(static_cast<std::uint64_t>(fs.geomCycles));
    w.key("raster_cycles");
    w.value(static_cast<std::uint64_t>(fs.rasterCycles));
    w.key("dram_reads");
    w.value(fs.dramReads);
    w.key("dram_writes");
    w.value(fs.dramWrites);
    w.key("texture_hit_ratio");
    w.value(fs.textureHitRatio);
    w.key("l2_hit_ratio");
    w.value(fs.l2HitRatio);
    w.key("instructions");
    w.value(fs.instructions);
    w.key("fragments");
    w.value(fs.fragments);

    // Cycle attribution: one object per Raster Unit, the six phases
    // keyed by ruPhaseName(). Each object's values sum to total_cycles.
    w.key("ru_phases");
    w.beginArray();
    for (const auto &phases : fs.ruPhases) {
        w.beginObject();
        for (std::size_t p = 0; p < kNumRuPhases; ++p) {
            w.key(ruPhaseName(static_cast<RuPhase>(p)));
            w.value(phases[p]);
        }
        w.endObject();
    }
    w.endArray();

    // Fig. 7 DRAM-bandwidth timeline of the raster phase.
    w.key("dram_timeline");
    w.beginObject();
    w.key("interval");
    w.value(fs.dramTimelineInterval);
    w.key("samples");
    w.beginArray();
    for (const std::uint32_t s : fs.dramTimeline)
        w.value(s);
    w.endArray();
    w.endObject();

    w.endObject();
}

void
writeRun(JsonWriter &w, const RunResult &result)
{
    w.beginObject();
    w.key("schema");
    w.value(kRunReportSchema);
    w.key("config");
    writeConfig(w, result);

    w.key("frames");
    w.beginArray();
    for (const FrameStats &fs : result.frames)
        writeFrame(w, fs);
    w.endArray();

    w.key("skipped_frames");
    w.beginArray();
    for (const std::uint32_t f : result.skippedFrames)
        w.value(f);
    w.endArray();

    // Cumulative counter dump; std::map iteration gives sorted,
    // deterministic order.
    w.key("counters");
    w.beginObject();
    for (const auto &[name, value] : result.counters) {
        w.key(name);
        w.value(value);
    }
    w.endObject();

    w.endObject();
}

} // namespace

std::string
runReportJson(const RunResult &result)
{
    JsonWriter w;
    writeRun(w, result);
    return w.str();
}

std::string
sweepReportJson(const std::vector<RunResult> &results)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema");
    w.value(kRunReportSetSchema);
    w.key("runs");
    w.beginArray();
    for (const RunResult &r : results)
        writeRun(w, r);
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
sweepReportJson(const std::vector<RunResult> &results,
                const std::vector<ReportFailure> &failures)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema");
    w.value(kRunReportSetSchema);
    w.key("runs");
    w.beginArray();
    for (const RunResult &r : results)
        writeRun(w, r);
    w.endArray();
    w.key("failures");
    w.beginArray();
    for (const ReportFailure &f : failures) {
        w.beginObject();
        w.key("job");
        w.value(f.jobIndex);
        w.key("key");
        w.value(f.key);
        w.key("code");
        w.value(f.code);
        w.key("message");
        w.value(f.message);
        w.key("attempts");
        w.value(std::uint64_t(f.attempts));
        w.key("quarantined");
        w.value(f.quarantined);
        w.key("not_run");
        w.value(f.notRun);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace libra
