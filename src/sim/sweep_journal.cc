#include "sim/sweep_journal.hh"

#include <limits>
#include <sstream>

#include "sim/journal.hh"
#include "sim/sweep.hh"
#include "trace/json.hh"

namespace libra
{

namespace
{

constexpr const char *kSchema = "libra.sweep_journal/1";

/** Largest value of the u32 fields (frame indices, timeline samples). */
constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();

/** Exact u64 from a JSON number (the parser keeps the raw literal, so
 *  values above 2^53 are not squeezed through a double), refused as
 *  CorruptData above @p max: a narrower field must not wrap. */
Result<std::uint64_t>
asU64(const JsonValue *v, const char *what,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    Result<std::uint64_t> r =
        jsonExactU64(v, what, ErrorCode::CorruptData, "journal: ");
    if (r.isOk() && *r > max) {
        return Status::error(ErrorCode::CorruptData, "journal: ", what,
                             " ", *r, " is out of range (max ", max, ")");
    }
    return r;
}

Result<double>
asDouble(const JsonValue *v, const char *what)
{
    if (!v || !v->isNumber()) {
        return Status::error(ErrorCode::CorruptData, "journal: missing ",
                             what);
    }
    return v->number;
}

/** Fetch, narrow and assign helpers so the field lists below stay
 *  one line per field. */
#define JOURNAL_GET_U64(obj, name, dest)                                  \
    do {                                                                  \
        Result<std::uint64_t> r_ = asU64((obj).find(name), name);         \
        if (!r_.isOk())                                                   \
            return r_.status();                                           \
        dest = *r_;                                                       \
    } while (0)

#define JOURNAL_GET_U32(obj, name, dest)                                  \
    do {                                                                  \
        Result<std::uint64_t> r_ =                                        \
            asU64((obj).find(name), name, kU32Max);                       \
        if (!r_.isOk())                                                   \
            return r_.status();                                           \
        dest = static_cast<std::uint32_t>(*r_);                           \
    } while (0)

#define JOURNAL_GET_DOUBLE(obj, name, dest)                               \
    do {                                                                  \
        Result<double> r_ = asDouble((obj).find(name), name);             \
        if (!r_.isOk())                                                   \
            return r_.status();                                           \
        dest = *r_;                                                       \
    } while (0)

void
u64Array(JsonWriter &w, const std::vector<std::uint64_t> &values)
{
    w.beginArray();
    for (std::uint64_t v : values)
        w.value(v);
    w.endArray();
}

Result<std::vector<std::uint64_t>>
u64ArrayFrom(const JsonValue *v, const char *what,
             std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    if (!v || !v->isArray()) {
        return Status::error(ErrorCode::CorruptData, "journal: missing ",
                             what);
    }
    std::vector<std::uint64_t> out;
    out.reserve(v->items.size());
    for (const JsonValue &item : v->items) {
        Result<std::uint64_t> r = asU64(&item, what, max);
        if (!r.isOk())
            return r.status();
        out.push_back(*r);
    }
    return out;
}

void
frameToJson(JsonWriter &w, const FrameStats &fs)
{
    w.beginObject();
    w.key("frame_index"); w.value(std::uint64_t(fs.frameIndex));
    w.key("total_cycles"); w.value(std::uint64_t(fs.totalCycles));
    w.key("geom_cycles"); w.value(std::uint64_t(fs.geomCycles));
    w.key("raster_cycles"); w.value(std::uint64_t(fs.rasterCycles));
    w.key("dram_reads"); w.value(fs.dramReads);
    w.key("dram_writes"); w.value(fs.dramWrites);
    w.key("dram_activates"); w.value(fs.dramActivates);
    w.key("avg_dram_read_latency"); w.value(fs.avgDramReadLatency);
    w.key("texture_hit_ratio"); w.value(fs.textureHitRatio);
    w.key("avg_texture_latency"); w.value(fs.avgTextureLatency);
    w.key("texture_requests"); w.value(fs.textureRequests);
    w.key("texture_misses"); w.value(fs.textureMisses);
    w.key("texture_l1_accesses"); w.value(fs.textureL1Accesses);
    w.key("l2_hit_ratio"); w.value(fs.l2HitRatio);
    w.key("replication_ratio"); w.value(fs.replicationRatio);
    w.key("instructions"); w.value(fs.instructions);
    w.key("fragments"); w.value(fs.fragments);
    w.key("warps"); w.value(fs.warps);
    w.key("quads"); w.value(fs.quads);
    w.key("tile_dram"); u64Array(w, fs.tileDram);
    w.key("tile_instr"); u64Array(w, fs.tileInstr);
    w.key("dram_timeline");
    w.beginArray();
    for (std::uint32_t v : fs.dramTimeline)
        w.value(std::uint64_t(v));
    w.endArray();
    w.key("dram_timeline_interval");
    w.value(std::uint64_t(fs.dramTimelineInterval));
    w.key("ru_phases");
    w.beginArray();
    for (const auto &phases : fs.ruPhases) {
        w.beginArray();
        for (std::uint64_t v : phases)
            w.value(v);
        w.endArray();
    }
    w.endArray();
    w.key("energy");
    w.beginObject();
    w.key("core_mj"); w.value(fs.energy.coreMj);
    w.key("cache_mj"); w.value(fs.energy.cacheMj);
    w.key("dram_mj"); w.value(fs.energy.dramMj);
    w.key("fixed_function_mj"); w.value(fs.energy.fixedFunctionMj);
    w.key("static_mj"); w.value(fs.energy.staticMj);
    w.key("total_mj"); w.value(fs.energy.totalMj);
    w.endObject();
    w.key("temperature_order"); w.value(fs.temperatureOrder);
    w.key("supertile_size"); w.value(std::uint64_t(fs.supertileSize));
    w.key("ranking_cycles"); w.value(fs.rankingCycles);
    if (!fs.reSkippedTiles.empty()) {
        // Rendering Elimination runs only, so every other run's line
        // keeps its bytes.
        w.key("re_tiles_skipped"); w.value(fs.reTilesSkipped);
        w.key("re_skipped_tiles");
        w.beginArray();
        for (std::uint8_t skipped : fs.reSkippedTiles)
            w.value(std::uint64_t(skipped));
        w.endArray();
    }
    if (!fs.image.empty()) {
        // Pixel hashes use all 64 bits; hex strings round-trip exactly
        // where JSON numbers (doubles in the parser) could not.
        w.key("image");
        w.beginArray();
        for (std::uint64_t px : fs.image)
            w.value(hex16(px));
        w.endArray();
    }
    w.endObject();
}

Result<FrameStats>
frameFromJson(const JsonValue &v)
{
    if (!v.isObject()) {
        return Status::error(ErrorCode::CorruptData,
                             "journal: frame is not an object");
    }
    FrameStats fs;
    JOURNAL_GET_U32(v, "frame_index", fs.frameIndex);
    JOURNAL_GET_U64(v, "total_cycles", fs.totalCycles);
    JOURNAL_GET_U64(v, "geom_cycles", fs.geomCycles);
    JOURNAL_GET_U64(v, "raster_cycles", fs.rasterCycles);
    JOURNAL_GET_U64(v, "dram_reads", fs.dramReads);
    JOURNAL_GET_U64(v, "dram_writes", fs.dramWrites);
    JOURNAL_GET_U64(v, "dram_activates", fs.dramActivates);
    JOURNAL_GET_DOUBLE(v, "avg_dram_read_latency", fs.avgDramReadLatency);
    JOURNAL_GET_DOUBLE(v, "texture_hit_ratio", fs.textureHitRatio);
    JOURNAL_GET_DOUBLE(v, "avg_texture_latency", fs.avgTextureLatency);
    JOURNAL_GET_U64(v, "texture_requests", fs.textureRequests);
    JOURNAL_GET_U64(v, "texture_misses", fs.textureMisses);
    JOURNAL_GET_U64(v, "texture_l1_accesses", fs.textureL1Accesses);
    JOURNAL_GET_DOUBLE(v, "l2_hit_ratio", fs.l2HitRatio);
    JOURNAL_GET_DOUBLE(v, "replication_ratio", fs.replicationRatio);
    JOURNAL_GET_U64(v, "instructions", fs.instructions);
    JOURNAL_GET_U64(v, "fragments", fs.fragments);
    JOURNAL_GET_U64(v, "warps", fs.warps);
    JOURNAL_GET_U64(v, "quads", fs.quads);

    Result<std::vector<std::uint64_t>> tile_dram =
        u64ArrayFrom(v.find("tile_dram"), "tile_dram");
    if (!tile_dram.isOk())
        return tile_dram.status();
    fs.tileDram = std::move(*tile_dram);

    Result<std::vector<std::uint64_t>> tile_instr =
        u64ArrayFrom(v.find("tile_instr"), "tile_instr");
    if (!tile_instr.isOk())
        return tile_instr.status();
    fs.tileInstr = std::move(*tile_instr);

    Result<std::vector<std::uint64_t>> timeline =
        u64ArrayFrom(v.find("dram_timeline"), "dram_timeline", kU32Max);
    if (!timeline.isOk())
        return timeline.status();
    fs.dramTimeline.reserve(timeline->size());
    for (std::uint64_t t : *timeline)
        fs.dramTimeline.push_back(static_cast<std::uint32_t>(t));

    JOURNAL_GET_U32(v, "dram_timeline_interval", fs.dramTimelineInterval);

    const JsonValue *phases = v.find("ru_phases");
    if (!phases || !phases->isArray()) {
        return Status::error(ErrorCode::CorruptData,
                             "journal: missing ru_phases");
    }
    for (const JsonValue &unit : phases->items) {
        Result<std::vector<std::uint64_t>> row =
            u64ArrayFrom(&unit, "ru_phases");
        if (!row.isOk())
            return row.status();
        if (row->size() != kNumRuPhases) {
            return Status::error(ErrorCode::CorruptData,
                                 "journal: ru_phases row has ",
                                 row->size(), " entries, expected ",
                                 kNumRuPhases);
        }
        std::array<std::uint64_t, kNumRuPhases> arr{};
        std::copy(row->begin(), row->end(), arr.begin());
        fs.ruPhases.push_back(arr);
    }

    const JsonValue *energy = v.find("energy");
    if (!energy || !energy->isObject()) {
        return Status::error(ErrorCode::CorruptData,
                             "journal: missing energy");
    }
    JOURNAL_GET_DOUBLE(*energy, "core_mj", fs.energy.coreMj);
    JOURNAL_GET_DOUBLE(*energy, "cache_mj", fs.energy.cacheMj);
    JOURNAL_GET_DOUBLE(*energy, "dram_mj", fs.energy.dramMj);
    JOURNAL_GET_DOUBLE(*energy, "fixed_function_mj",
                       fs.energy.fixedFunctionMj);
    JOURNAL_GET_DOUBLE(*energy, "static_mj", fs.energy.staticMj);
    JOURNAL_GET_DOUBLE(*energy, "total_mj", fs.energy.totalMj);

    const JsonValue *temp = v.find("temperature_order");
    if (!temp || temp->kind != JsonValue::Kind::Bool) {
        return Status::error(ErrorCode::CorruptData,
                             "journal: missing temperature_order");
    }
    fs.temperatureOrder = temp->boolean;
    JOURNAL_GET_U32(v, "supertile_size", fs.supertileSize);
    JOURNAL_GET_U64(v, "ranking_cycles", fs.rankingCycles);

    if (const JsonValue *skipped = v.find("re_skipped_tiles")) {
        JOURNAL_GET_U64(v, "re_tiles_skipped", fs.reTilesSkipped);
        // A skip set holds flags: 1 for a skipped tile, else 0.
        Result<std::vector<std::uint64_t>> tiles =
            u64ArrayFrom(skipped, "re_skipped_tiles", 1);
        if (!tiles.isOk())
            return tiles.status();
        fs.reSkippedTiles.reserve(tiles->size());
        for (std::uint64_t t : *tiles)
            fs.reSkippedTiles.push_back(static_cast<std::uint8_t>(t));
    }

    if (const JsonValue *image = v.find("image")) {
        if (!image->isArray()) {
            return Status::error(ErrorCode::CorruptData,
                                 "journal: image is not an array");
        }
        fs.image.reserve(image->items.size());
        for (const JsonValue &px : image->items) {
            if (!px.isString()) {
                return Status::error(ErrorCode::CorruptData,
                                     "journal: image pixel is not a "
                                     "hex string");
            }
            Result<std::uint64_t> value =
                parseHex64(px.str, "image pixel", "journal: ");
            if (!value.isOk())
                return value.status();
            fs.image.push_back(*value);
        }
    }
    return fs;
}

} // namespace

std::string
sweepJobKey(const SweepJob &job)
{
    std::ostringstream os;
    os << (job.spec ? job.spec->abbrev : "?") << ':'
       << job.config.screenWidth << 'x' << job.config.screenHeight
       << ":f" << job.frames << '@' << job.firstFrame << ":cfg:"
       << hex16(job.config.configHash());
    return os.str();
}

void
runResultToJson(JsonWriter &w, const RunResult &r)
{
    w.beginObject();
    w.key("benchmark");
    w.value(r.benchmark);
    w.key("frames");
    w.beginArray();
    for (const FrameStats &fs : r.frames)
        frameToJson(w, fs);
    w.endArray();
    w.key("skipped_frames");
    w.beginArray();
    for (std::uint32_t f : r.skippedFrames)
        w.value(std::uint64_t(f));
    w.endArray();
    w.key("counters");
    w.beginObject();
    for (const auto &[name, value] : r.counters) {
        w.key(name);
        w.value(value);
    }
    w.endObject();
    w.endObject();
}

Result<RunResult>
runResultFromJson(const JsonValue &v)
{
    if (!v.isObject()) {
        return Status::error(ErrorCode::CorruptData,
                             "journal: result is not an object");
    }
    RunResult r;
    const JsonValue *bench = v.find("benchmark");
    if (!bench || !bench->isString()) {
        return Status::error(ErrorCode::CorruptData,
                             "journal: missing benchmark name");
    }
    r.benchmark = bench->str;

    const JsonValue *frames = v.find("frames");
    if (!frames || !frames->isArray()) {
        return Status::error(ErrorCode::CorruptData,
                             "journal: missing frames");
    }
    for (const JsonValue &frame : frames->items) {
        Result<FrameStats> fs = frameFromJson(frame);
        if (!fs.isOk())
            return fs.status();
        r.frames.push_back(std::move(*fs));
    }

    Result<std::vector<std::uint64_t>> skipped =
        u64ArrayFrom(v.find("skipped_frames"), "skipped_frames", kU32Max);
    if (!skipped.isOk())
        return skipped.status();
    for (std::uint64_t f : *skipped)
        r.skippedFrames.push_back(static_cast<std::uint32_t>(f));

    const JsonValue *counters = v.find("counters");
    if (!counters || !counters->isObject()) {
        return Status::error(ErrorCode::CorruptData,
                             "journal: missing counters");
    }
    for (const auto &[name, value] : counters->members) {
        Result<std::uint64_t> count = asU64(&value, name.c_str());
        if (!count.isOk())
            return count.status();
        r.counters[name] = *count;
    }
    return r;
}

std::string
sweepJournalLine(const JournalRecord &record)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema");
    w.value(kSchema);
    w.key("key");
    w.value(record.key);
    w.key("ok");
    w.value(record.ok);
    w.key("attempts");
    w.value(std::uint64_t(record.attempts));
    if (record.ok) {
        w.key("result");
        runResultToJson(w, record.result);
    } else {
        w.key("code");
        w.value(errorCodeName(record.code));
        w.key("message");
        w.value(record.message);
    }
    w.endObject();
    return w.str();
}

Result<std::vector<JournalRecord>>
loadSweepJournal(const std::string &path)
{
    Result<std::vector<JsonValue>> lines = Journal::load(path, kSchema);
    if (!lines.isOk())
        return lines.status();

    std::vector<JournalRecord> records;
    for (std::size_t i = 0; i < lines->size(); ++i) {
        const JsonValue &v = (*lines)[i];
        JournalRecord record;
        const JsonValue *key = v.find("key");
        const JsonValue *ok = v.find("ok");
        if (!key || !key->isString() || !ok
            || ok->kind != JsonValue::Kind::Bool) {
            return Status::error(ErrorCode::CorruptData, "journal ",
                                 path, ": line ", i + 1,
                                 " lacks key/ok");
        }
        record.key = key->str;
        record.ok = ok->boolean;
        JOURNAL_GET_U32(v, "attempts", record.attempts);

        if (record.ok) {
            const JsonValue *result = v.find("result");
            if (!result) {
                return Status::error(ErrorCode::CorruptData, "journal ",
                                     path, ": line ", i + 1,
                                     " ok without result");
            }
            Result<RunResult> parsed = runResultFromJson(*result);
            if (!parsed.isOk())
                return parsed.status();
            record.result = std::move(*parsed);
        } else {
            const JsonValue *code = v.find("code");
            const JsonValue *message = v.find("message");
            if (!code || !code->isString() || !message
                || !message->isString()) {
                return Status::error(ErrorCode::CorruptData, "journal ",
                                     path, ": line ", i + 1,
                                     " failure without code/message");
            }
            record.code = ErrorCode::Unavailable;
            for (ErrorCode candidate :
                 {ErrorCode::InvalidArgument, ErrorCode::NotFound,
                  ErrorCode::IoError, ErrorCode::CorruptData,
                  ErrorCode::WatchdogExpired, ErrorCode::NoProgress,
                  ErrorCode::FailedPrecondition,
                  ErrorCode::InvariantViolation,
                  ErrorCode::DeadlineExceeded, ErrorCode::Unavailable}) {
                if (code->str == errorCodeName(candidate)) {
                    record.code = candidate;
                    break;
                }
            }
            record.message = message->str;
        }
        records.push_back(std::move(record));
    }
    return records;
}

} // namespace libra
