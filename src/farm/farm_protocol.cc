#include "farm/farm_protocol.hh"

#include <charconv>

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

/** "RxC" → (raster units, cores per RU). */
Result<std::pair<std::uint32_t, std::uint32_t>>
parseShape(const std::string &text)
{
    const auto x = text.find('x');
    std::uint32_t r = 0, c = 0;
    const char *rb = text.data();
    const char *re = text.data() + (x == std::string::npos ? 0 : x);
    auto [rp, rec] = std::from_chars(rb, re, r);
    bool ok = x != std::string::npos && rec == std::errc() && rp == re;
    if (ok) {
        const char *cb = text.data() + x + 1;
        const char *ce = text.data() + text.size();
        auto [cp, cec] = std::from_chars(cb, ce, c);
        ok = cec == std::errc() && cp == ce && r > 0 && c > 0;
    }
    if (!ok) {
        return Status::error(ErrorCode::InvalidArgument,
                             "config spec: expected RxC shape, got '",
                             text, "'");
    }
    return std::pair{r, c};
}

Result<std::uint32_t>
parseCount(const std::string &text, const char *what)
{
    std::uint32_t v = 0;
    auto [p, ec] = std::from_chars(text.data(),
                                   text.data() + text.size(), v);
    if (ec != std::errc() || p != text.data() + text.size() || v == 0) {
        return Status::error(ErrorCode::InvalidArgument,
                             "config spec: bad ", what, " '", text, "'");
    }
    return v;
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

const char *
farmCacheStateName(FarmCacheState state)
{
    switch (state) {
      case FarmCacheState::None: return "none";
      case FarmCacheState::Hit: return "hit";
      case FarmCacheState::Miss: return "miss";
      case FarmCacheState::Coalesced: return "coalesced";
      case FarmCacheState::Recovered: return "recovered";
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
        if (!req.figure.empty()) {
            w.key("figure");
            w.value(req.figure);
        }
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

    std::string op = "simulate";
    if (const JsonValue *opv = doc->find("op")) {
        if (!opv->isString()) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "farm request: op is not a string");
        }
        op = opv->str;
    }
    if (op == "simulate") {
        req.op = FarmOp::Simulate;
    } else if (op == "ping") {
        req.op = FarmOp::Ping;
        return req;
    } else if (op == "stats") {
        req.op = FarmOp::Stats;
        return req;
    } else if (op == "shutdown") {
        req.op = FarmOp::Shutdown;
        return req;
    } else {
        return Status::error(ErrorCode::InvalidArgument,
                             "farm request: unknown op '", op, "'");
    }

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
    if (const JsonValue *fig = doc->find("figure");
        fig && fig->isString()) {
        req.figure = fig->str;
    }
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
              FarmCacheState::Coalesced, FarmCacheState::Recovered}) {
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
        if (!rb->isNumber() || rb->number < 0) {
            return Status::error(ErrorCode::CorruptData,
                                 "farm response: bad report_bytes");
        }
        resp.reportBytes = static_cast<std::uint64_t>(rb->number);
    }
    return resp;
}

Result<GpuConfig>
parseConfigSpec(const std::string &spec)
{
    // Split on ':' into head + args.
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
        const std::size_t colon = spec.find(':', start);
        parts.push_back(spec.substr(start, colon - start));
        if (colon == std::string::npos)
            break;
        start = colon + 1;
    }
    const std::string &head = parts[0];

    if (head == "baseline") {
        std::uint32_t cores = 8;
        if (parts.size() > 2) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "config spec: baseline takes at most "
                                 "one :C argument");
        }
        if (parts.size() == 2) {
            Result<std::uint32_t> c = parseCount(parts[1], "core count");
            if (!c.isOk())
                return c.status();
            cores = *c;
        }
        return GpuConfig::baseline(cores);
    }
    if (head == "ptr" || head == "libra" || head == "re" ||
        head == "re-libra") {
        std::uint32_t rus = 2, cores = 4;
        if (parts.size() > 2) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "config spec: ", head, " takes at most "
                                 "one :RxC argument");
        }
        if (parts.size() == 2) {
            Result<std::pair<std::uint32_t, std::uint32_t>> shape =
                parseShape(parts[1]);
            if (!shape.isOk())
                return shape.status();
            rus = shape->first;
            cores = shape->second;
        }
        GpuConfig cfg = (head == "ptr" || head == "re")
                            ? GpuConfig::ptr(rus, cores)
                            : GpuConfig::libra(rus, cores);
        if (head == "re" || head == "re-libra")
            cfg.renderingElimination = true;
        return cfg;
    }
    if (head == "supertile") {
        if (parts.size() < 2 || parts.size() > 3) {
            return Status::error(ErrorCode::InvalidArgument,
                                 "config spec: supertile needs "
                                 "supertile:S[:RxC]");
        }
        Result<std::uint32_t> size =
            parseCount(parts[1], "supertile size");
        if (!size.isOk())
            return size.status();
        std::uint32_t rus = 2, cores = 4;
        if (parts.size() == 3) {
            Result<std::pair<std::uint32_t, std::uint32_t>> shape =
                parseShape(parts[2]);
            if (!shape.isOk())
                return shape.status();
            rus = shape->first;
            cores = shape->second;
        }
        return GpuConfig::staticSupertile(*size, rus, cores);
    }
    return Status::error(ErrorCode::InvalidArgument,
                         "config spec: unknown preset '", head,
                         "' (want baseline/ptr/libra/supertile/re/"
                         "re-libra)");
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
