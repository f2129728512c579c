#include "farm/farm_protocol.hh"

#include "gpu/policy_registry.hh"
#include "trace/json.hh"

namespace libra
{

namespace
{

/** Exact u32 from a JSON number (raw-literal path, like the journal). */
Result<std::uint32_t>
asU32(const JsonValue *v, const char *what)
{
    Result<std::uint64_t> value =
        jsonExactU64(v, what, ErrorCode::InvalidArgument, "farm request: ");
    if (!value.isOk())
        return value.status();
    if (*value > UINT32_MAX) {
        return Status::error(ErrorCode::InvalidArgument, "farm request: bad ",
                             what, ": '", v->str, "'");
    }
    return static_cast<std::uint32_t>(*value);
}

Result<std::string>
asString(const JsonValue *v, const char *what)
{
    if (!v || !v->isString()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "farm request: missing ", what);
    }
    return v->str;
}

/** Re-render a parsed subtree as compact JSON (payload round-trip).
 *  Numbers reuse the parser's raw literal so values survive exactly. */
void
renderJson(JsonWriter &w, const JsonValue &v)
{
    switch (v.kind) {
      case JsonValue::Kind::Null:
        w.null();
        return;
      case JsonValue::Kind::Bool:
        w.value(v.boolean);
        return;
      case JsonValue::Kind::Number:
        w.raw(v.str);
        return;
      case JsonValue::Kind::String:
        w.value(v.str);
        return;
      case JsonValue::Kind::Array:
        w.beginArray();
        for (const JsonValue &item : v.items)
            renderJson(w, item);
        w.endArray();
        return;
      case JsonValue::Kind::Object:
        w.beginObject();
        for (const auto &[name, member] : v.members) {
            w.key(name);
            renderJson(w, member);
        }
        w.endObject();
        return;
    }
}

} // namespace

const char *
farmOpName(FarmOp op)
{
    switch (op) {
      case FarmOp::Simulate: return "simulate";
      case FarmOp::Ping: return "ping";
      case FarmOp::Stats: return "stats";
      case FarmOp::Shutdown: return "shutdown";
    }
    return "?";
}

Result<FarmOp>
parseFarmOp(std::string_view name)
{
    std::string ops;
    for (const FarmOp op : {FarmOp::Simulate, FarmOp::Ping, FarmOp::Stats,
                            FarmOp::Shutdown}) {
        if (name == farmOpName(op))
            return op;
        ops += ops.empty() ? "" : "|";
        ops += farmOpName(op);
    }
    return Status::error(ErrorCode::InvalidArgument, "unknown op '", name,
                         "' (want ", ops, ")");
}

const char *
farmCacheStateName(FarmCacheState state)
{
    switch (state) {
      case FarmCacheState::None: return "none";
      case FarmCacheState::Hit: return "hit";
      case FarmCacheState::Miss: return "miss";
      case FarmCacheState::Coalesced: return "coalesced";
    }
    return "?";
}

std::string
farmRequestLine(const FarmRequest &req)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema");
    w.value(kFarmRequestSchema);
    w.key("op");
    w.value(farmOpName(req.op));
    w.key("id");
    w.value(req.id);
    if (req.op == FarmOp::Simulate) {
        w.key("benchmark");
        w.value(req.benchmark);
        w.key("width");
        w.value(req.width);
        w.key("height");
        w.value(req.height);
        w.key("frames");
        w.value(req.frames);
        w.key("first_frame");
        w.value(req.firstFrame);
        w.key("config");
        w.value(req.config);
    }
    w.endObject();
    return w.str();
}

Result<FarmRequest>
parseFarmRequest(const std::string &line)
{
    Result<JsonValue> doc = parseJson(line);
    if (!doc.isOk())
        return doc.status();
    if (!doc->isObject()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "farm request: not a JSON object");
    }
    const JsonValue *schema = doc->find("schema");
    if (!schema || !schema->isString()
        || schema->str != kFarmRequestSchema) {
        return Status::error(ErrorCode::InvalidArgument,
                             "farm request: wrong schema (expected ",
                             kFarmRequestSchema, ")");
    }

    FarmRequest req;
    if (const JsonValue *id = doc->find("id");
        id && id->isString()) {
        req.id = id->str;
    }

    if (const JsonValue *opv = doc->find("op")) {
        if (!opv->isString()) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "farm request: op is not a string");
        }
        Result<FarmOp> op = parseFarmOp(opv->str);
        if (!op.isOk()) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "farm request: ", op.status().message());
        }
        req.op = *op;
    }
    if (req.op != FarmOp::Simulate)
        return req;

    Result<std::string> bench =
        asString(doc->find("benchmark"), "benchmark");
    if (!bench.isOk())
        return bench.status();
    req.benchmark = *bench;

    Result<std::uint32_t> width = asU32(doc->find("width"), "width");
    if (!width.isOk())
        return width.status();
    req.width = *width;
    Result<std::uint32_t> height = asU32(doc->find("height"), "height");
    if (!height.isOk())
        return height.status();
    req.height = *height;
    Result<std::uint32_t> frames = asU32(doc->find("frames"), "frames");
    if (!frames.isOk())
        return frames.status();
    req.frames = *frames;
    if (req.frames == 0) {
        return Status::error(ErrorCode::InvalidArgument,
                             "farm request: frames must be >= 1");
    }
    if (const JsonValue *ff = doc->find("first_frame")) {
        Result<std::uint32_t> v = asU32(ff, "first_frame");
        if (!v.isOk())
            return v.status();
        req.firstFrame = *v;
    }
    Result<std::string> config = asString(doc->find("config"), "config");
    if (!config.isOk())
        return config.status();
    req.config = *config;
    return req;
}

std::string
farmResponseLine(const FarmResponse &resp)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema");
    w.value(kFarmResponseSchema);
    w.key("id");
    w.value(resp.id);
    w.key("status");
    w.value(resp.status);
    if (resp.cache != FarmCacheState::None) {
        w.key("cache");
        w.value(farmCacheStateName(resp.cache));
    }
    if (!resp.key.empty()) {
        w.key("key");
        w.value(resp.key);
    }
    if (!resp.code.empty()) {
        w.key("code");
        w.value(resp.code);
    }
    if (!resp.message.empty()) {
        w.key("message");
        w.value(resp.message);
    }
    if (resp.reportBytes != 0) {
        w.key("report_bytes");
        w.value(resp.reportBytes);
    }
    if (!resp.payload.empty()) {
        w.key("payload");
        w.raw(resp.payload);
    }
    w.endObject();
    return w.str();
}

Result<FarmResponse>
parseFarmResponse(const std::string &line)
{
    Result<JsonValue> doc = parseJson(line);
    if (!doc.isOk())
        return doc.status();
    const JsonValue *schema = doc->find("schema");
    if (!schema || !schema->isString()
        || schema->str != kFarmResponseSchema) {
        return Status::error(ErrorCode::CorruptData,
                             "farm response: wrong schema");
    }
    FarmResponse resp;
    if (const JsonValue *id = doc->find("id"); id && id->isString())
        resp.id = id->str;
    const JsonValue *status = doc->find("status");
    if (!status || !status->isString()) {
        return Status::error(ErrorCode::CorruptData,
                             "farm response: missing status");
    }
    resp.status = status->str;
    if (const JsonValue *cache = doc->find("cache");
        cache && cache->isString()) {
        for (const FarmCacheState s :
             {FarmCacheState::Hit, FarmCacheState::Miss,
              FarmCacheState::Coalesced}) {
            if (cache->str == farmCacheStateName(s))
                resp.cache = s;
        }
    }
    if (const JsonValue *key = doc->find("key"); key && key->isString())
        resp.key = key->str;
    if (const JsonValue *code = doc->find("code");
        code && code->isString()) {
        resp.code = code->str;
    }
    if (const JsonValue *msg = doc->find("message");
        msg && msg->isString()) {
        resp.message = msg->str;
    }
    if (const JsonValue *payload = doc->find("payload")) {
        JsonWriter w;
        renderJson(w, *payload);
        resp.payload = w.str();
    }
    if (const JsonValue *rb = doc->find("report_bytes")) {
        Result<std::uint64_t> bytes =
            jsonExactU64(rb, "report_bytes", ErrorCode::CorruptData,
                         "farm response: ");
        if (!bytes.isOk())
            return bytes.status();
        resp.reportBytes = *bytes;
    }
    return resp;
}

Result<GpuConfig>
farmRequestConfig(const FarmRequest &req)
{
    Result<GpuConfig> cfg = parseConfigSpec(req.config);
    if (!cfg.isOk())
        return cfg.status();
    cfg->screenWidth = req.width;
    cfg->screenHeight = req.height;
    if (Status st = cfg->validate(); !st.isOk()) {
        return Status::error(ErrorCode::InvalidArgument,
                             "farm request '", req.id, "': ",
                             st.message());
    }
    return cfg;
}

} // namespace libra
