#include "trace/json.hh"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "common/log.hh"

namespace libra
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char raw : s) {
        const auto c = static_cast<unsigned char>(raw);
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += raw;
            }
        }
    }
    return out;
}

void
JsonWriter::separate()
{
    if (pendingKey) {
        pendingKey = false;
        return; // the key already emitted the comma
    }
    if (!hasEntry.empty()) {
        if (hasEntry.back())
            out += ',';
        hasEntry.back() = true;
    }
}

void
JsonWriter::beginObject()
{
    separate();
    out += '{';
    hasEntry.push_back(false);
}

void
JsonWriter::endObject()
{
    libra_assert(!hasEntry.empty(), "endObject outside a container");
    hasEntry.pop_back();
    out += '}';
}

void
JsonWriter::beginArray()
{
    separate();
    out += '[';
    hasEntry.push_back(false);
}

void
JsonWriter::endArray()
{
    libra_assert(!hasEntry.empty(), "endArray outside a container");
    hasEntry.pop_back();
    out += ']';
}

void
JsonWriter::key(const std::string &name)
{
    libra_assert(!hasEntry.empty(), "key outside an object");
    if (hasEntry.back())
        out += ',';
    hasEntry.back() = true;
    out += '"';
    out += jsonEscape(name);
    out += "\":";
    pendingKey = true;
}

void
JsonWriter::value(const std::string &s)
{
    separate();
    out += '"';
    out += jsonEscape(s);
    out += '"';
}

void
JsonWriter::value(const char *s)
{
    value(std::string(s));
}

void
JsonWriter::value(double d)
{
    separate();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out += buf;
}

void
JsonWriter::value(std::uint64_t v)
{
    separate();
    out += std::to_string(v);
}

void
JsonWriter::value(std::int64_t v)
{
    separate();
    out += std::to_string(v);
}

void
JsonWriter::value(bool b)
{
    separate();
    out += b ? "true" : "false";
}

void
JsonWriter::null()
{
    separate();
    out += "null";
}

void
JsonWriter::raw(const std::string &json)
{
    separate();
    out += json;
}

const JsonValue *
JsonValue::find(const std::string &name) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[key, val] : members) {
        if (key == name)
            return &val;
    }
    return nullptr;
}

namespace
{

/** Recursive-descent JSON parser over a string, tracking position for
 *  error messages. Depth-limited against pathological nesting. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : s(text) {}

    Result<JsonValue>
    parse()
    {
        JsonValue root;
        if (Status st = parseValue(root, 0); !st.isOk())
            return st;
        skipSpace();
        if (pos != s.size()) {
            return fail("trailing content after the JSON document");
        }
        return root;
    }

  private:
    static constexpr int kMaxDepth = 64;

    Status
    fail(const char *what) const
    {
        return Status::error(ErrorCode::CorruptData, "JSON: ", what,
                             " at byte ", pos);
    }

    void
    skipSpace()
    {
        while (pos < s.size()
               && (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n'
                   || s[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    consume(char c)
    {
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    Status
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected '\"'");
        out.clear();
        while (pos < s.size()) {
            const char c = s[pos];
            if (c == '"') {
                ++pos;
                return Status::ok();
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            if (c == '\\') {
                ++pos;
                if (pos >= s.size())
                    return fail("dangling escape");
                const char e = s[pos];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos + 4 >= s.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = s[pos + 1 + i];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code += static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code += static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code += static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape digit");
                    }
                    pos += 4;
                    // UTF-8 encode (surrogate pairs not recombined —
                    // the exporters never emit them).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xc0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (code >> 12));
                        out += static_cast<char>(0x80
                                                 | ((code >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                ++pos;
            } else {
                out += c;
                ++pos;
            }
        }
        return fail("unterminated string");
    }

    Status
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos;
        if (consume('-')) {}
        while (pos < s.size()
               && std::isdigit(static_cast<unsigned char>(s[pos]))) {
            ++pos;
        }
        if (pos == start || (s[start] == '-' && pos == start + 1))
            return fail("expected digits");
        const std::size_t int_start =
            start + (s[start] == '-' ? 1 : 0);
        if (s[int_start] == '0' && pos > int_start + 1)
            return fail("leading zero");
        if (consume('.')) {
            const std::size_t frac = pos;
            while (pos < s.size()
                   && std::isdigit(static_cast<unsigned char>(s[pos]))) {
                ++pos;
            }
            if (pos == frac)
                return fail("expected fraction digits");
        }
        if (pos < s.size() && (s[pos] == 'e' || s[pos] == 'E')) {
            ++pos;
            if (pos < s.size() && (s[pos] == '+' || s[pos] == '-'))
                ++pos;
            const std::size_t exp = pos;
            while (pos < s.size()
                   && std::isdigit(static_cast<unsigned char>(s[pos]))) {
                ++pos;
            }
            if (pos == exp)
                return fail("expected exponent digits");
        }
        out.kind = JsonValue::Kind::Number;
        out.str = s.substr(start, pos - start); //!< raw text, exact
        out.number = std::strtod(out.str.c_str(), nullptr);
        return Status::ok();
    }

    Status
    parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipSpace();
        if (pos >= s.size())
            return fail("unexpected end of input");
        const char c = s[pos];
        if (c == '{') {
            ++pos;
            out.kind = JsonValue::Kind::Object;
            skipSpace();
            if (consume('}'))
                return Status::ok();
            while (true) {
                skipSpace();
                std::string key;
                if (Status st = parseString(key); !st.isOk())
                    return st;
                skipSpace();
                if (!consume(':'))
                    return fail("expected ':'");
                JsonValue member;
                if (Status st = parseValue(member, depth + 1);
                    !st.isOk()) {
                    return st;
                }
                out.members.emplace_back(std::move(key),
                                         std::move(member));
                skipSpace();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return Status::ok();
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos;
            out.kind = JsonValue::Kind::Array;
            skipSpace();
            if (consume(']'))
                return Status::ok();
            while (true) {
                JsonValue item;
                if (Status st = parseValue(item, depth + 1); !st.isOk())
                    return st;
                out.items.push_back(std::move(item));
                skipSpace();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return Status::ok();
                return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.str);
        }
        if (s.compare(pos, 4, "true") == 0) {
            pos += 4;
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return Status::ok();
        }
        if (s.compare(pos, 5, "false") == 0) {
            pos += 5;
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return Status::ok();
        }
        if (s.compare(pos, 4, "null") == 0) {
            pos += 4;
            out.kind = JsonValue::Kind::Null;
            return Status::ok();
        }
        return parseNumber(out);
    }

    const std::string &s;
    std::size_t pos = 0;
};

} // namespace

Result<JsonValue>
parseJson(const std::string &text)
{
    return Parser(text).parse();
}

Status
writeTextFile(const std::string &path, const std::string &content)
{
    std::FILE *fp = std::fopen(path.c_str(), "wb");
    if (fp == nullptr) {
        return Status::error(ErrorCode::IoError, "cannot open ", path,
                             " for writing");
    }
    const std::size_t written =
        std::fwrite(content.data(), 1, content.size(), fp);
    const int close_rc = std::fclose(fp);
    if (written != content.size() || close_rc != 0) {
        return Status::error(ErrorCode::IoError, "short write to ",
                             path);
    }
    return Status::ok();
}

Result<std::string>
readTextFile(const std::string &path)
{
    std::FILE *fp = std::fopen(path.c_str(), "rb");
    if (fp == nullptr) {
        return Status::error(ErrorCode::NotFound, "cannot open ", path,
                             ": ", std::strerror(errno));
    }
    std::string text;
    char buf[65536];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), fp)) > 0)
        text.append(buf, n);
    const bool read_error = std::ferror(fp) != 0;
    std::fclose(fp);
    if (read_error)
        return Status::error(ErrorCode::IoError, "read of ", path, " failed");
    return text;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

Result<std::uint64_t>
parseHex64(const std::string &text, const char *what, const char *prefix)
{
    std::uint64_t value = 0;
    auto [ptr, ec] = std::from_chars(
        text.data(), text.data() + text.size(), value, 16);
    if (ec != std::errc() || ptr != text.data() + text.size()
        || text.empty()) {
        return Status::error(ErrorCode::CorruptData, prefix, "bad hex ",
                             what, ": '", text, "'");
    }
    return value;
}

Result<std::uint64_t>
jsonExactU64(const JsonValue *v, const char *what, ErrorCode code,
             const char *prefix)
{
    if (!v || !v->isNumber())
        return Status::error(code, prefix, "missing ", what);
    if (v->str.find_first_of(".eE+-") != std::string::npos) {
        return Status::error(code, prefix, what,
                             " is not a non-negative integer: '", v->str,
                             "'");
    }
    std::uint64_t value = 0;
    auto [ptr, ec] = std::from_chars(
        v->str.data(), v->str.data() + v->str.size(), value);
    if (ec != std::errc() || ptr != v->str.data() + v->str.size())
        return Status::error(code, prefix, "bad ", what, ": '", v->str, "'");
    return value;
}

} // namespace libra
