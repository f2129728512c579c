/**
 * @file
 * Minimal in-tree JSON support: a streaming writer used by the trace
 * and report exporters, and a small validating parser used by the
 * exporter test suite (and by any tool that wants to re-read a
 * RunReport without an external dependency).
 *
 * The writer produces deterministic output: identical inputs yield
 * byte-identical text (fixed key order is the caller's responsibility;
 * number formatting uses a fixed "%.17g" for doubles so values
 * round-trip exactly). That determinism is what the golden determinism
 * test locks down.
 */

#ifndef LIBRA_TRACE_JSON_HH
#define LIBRA_TRACE_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hh"

namespace libra
{

/** Escape @p s for inclusion inside a JSON string literal (quotes not
 *  included). Control characters become \u00XX sequences. */
std::string jsonEscape(const std::string &s);

/**
 * Streaming JSON writer with automatic comma placement.
 *
 * Usage:
 *   JsonWriter w;
 *   w.beginObject();
 *   w.key("name"); w.value("CCS");
 *   w.key("frames"); w.beginArray();
 *   w.value(1); w.value(2);
 *   w.endArray();
 *   w.endObject();
 *   std::string text = w.str();
 *
 * The writer does not pretty-print nested containers beyond newlines
 * between top-level-ish entries; output is compact and diffable.
 */
class JsonWriter
{
  public:
    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Object member key; must be followed by exactly one value. */
    void key(const std::string &name);

    void value(const std::string &s);
    void value(const char *s);
    void value(double d);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(int v) { value(static_cast<std::int64_t>(v)); }
    void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
    void value(bool b);
    void null();

    /** Insert a pre-rendered JSON fragment as one value. */
    void raw(const std::string &json);

    const std::string &str() const { return out; }

  private:
    /** Emit a comma if the current container already has an entry. */
    void separate();

    std::string out;
    std::vector<bool> hasEntry; //!< per open container
    bool pendingKey = false;
};

/**
 * Parsed JSON document node. A deliberately small DOM: enough for the
 * exporter tests to walk traces and reports, not a general library.
 */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> items;                          //!< Array
    std::vector<std::pair<std::string, JsonValue>> members; //!< Object

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &name) const;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
};

/**
 * Parse @p text as one JSON document. Returns CorruptData with a
 * byte-offset diagnostic on the first syntax error; trailing non-space
 * content after the document is also an error.
 */
Result<JsonValue> parseJson(const std::string &text);

/** Write @p content to @p path atomically enough for our purposes
 *  (plain fopen/fwrite); IoError on failure. */
Status writeTextFile(const std::string &path, const std::string &content);

/** The whole content of @p path: NotFound when it cannot be opened,
 *  IoError when the read fails. */
Result<std::string> readTextFile(const std::string &path);

/** @p v as 16 zero-padded lower-case hex digits (hashes in file names,
 *  keys and JSON strings). */
std::string hex16(std::uint64_t v);

/** All of @p text as a hexadecimal u64; otherwise CorruptData
 *  "<prefix>bad hex <what>: '<text>'". */
Result<std::uint64_t> parseHex64(const std::string &text, const char *what,
                                 const char *prefix);

/**
 * Exact value of the non-negative integer JSON number @p v, read from
 * the raw literal the parser keeps, so values above 2^53 are not
 * rounded through a double. A missing or non-number @p v, a sign,
 * fraction or exponent, and a value beyond 64 bits are errors with
 * @p code whose message starts with @p prefix and names @p what.
 */
Result<std::uint64_t> jsonExactU64(const JsonValue *v, const char *what,
                                   ErrorCode code, const char *prefix);

} // namespace libra

#endif // LIBRA_TRACE_JSON_HH
