/**
 * @file
 * Minimal recursive-descent JSON reader for the telemetry layer.
 *
 * The writer side (json.hh) streams; nothing in the repo could *read*
 * JSON until --profile-in needed to. This parser covers exactly the
 * subset our own writer emits — objects, arrays, strings with the
 * standard escapes, numbers, booleans, null — and two deliberate
 * choices for the profile use case:
 *
 *  - Numbers keep their raw token text and are converted on demand
 *    (asU64 via strtoull), so 64-bit counters round-trip exactly;
 *    routing through double would corrupt values above 2^53.
 *  - Object members preserve insertion order (vector of pairs, not a
 *    map), so a parse → rewrite cycle of our own deterministic output
 *    stays byte-stable.
 */

#ifndef TXRACE_TELEMETRY_JSONPARSE_HH
#define TXRACE_TELEMETRY_JSONPARSE_HH

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace txrace::telemetry {

/** A parsed JSON value. */
struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Object, Array };

    Type type = Type::Null;
    bool boolean = false;
    /** Raw number token, e.g. "18446744073709551615" or "-1.5e3". */
    std::string number;
    std::string str;
    std::vector<std::pair<std::string, JsonValue>> object;
    std::vector<JsonValue> array;

    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }
    bool isString() const { return type == Type::String; }
    bool isNumber() const { return type == Type::Number; }

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    /** The number as uint64_t (0 when not a non-negative integer). */
    uint64_t asU64() const;
    /** The number as double (0.0 when not a number). */
    double asDouble() const;
};

/** Member @p key of @p obj as uint64_t (0 when absent or not a
 *  non-negative integer). */
uint64_t getU64(const JsonValue &obj, std::string_view key);

/** Member @p key of @p obj into @p out when present. False, naming
 *  the key and @p out's range in @p error, unless it is a plain
 *  decimal integer that @p out can hold (no sign, fraction, exponent
 *  or quotes); @p out is then unspecified. */
template <typename T>
bool
readUnsigned(const JsonValue &obj, const char *key, T &out,
             std::string &error)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return true;
    const char *end = v->number.data() + v->number.size();
    auto [ptr, ec] = std::from_chars(v->number.data(), end, out);
    if (v->isNumber() && ec == std::errc() && ptr == end)
        return true;
    error = std::string(key) + " must be an integer in [0, " +
            std::to_string(std::numeric_limits<T>::max()) + "]";
    return false;
}

/** Member @p key of @p obj as a string (empty when absent or not a
 *  string). */
std::string getStr(const JsonValue &obj, std::string_view key);

/** Member @p key of @p obj as a bool (false unless it is `true`). */
bool getBool(const JsonValue &obj, std::string_view key);

/**
 * Parse @p text as one JSON document. Returns true and fills @p out
 * on success; returns false and describes the problem in @p error
 * (with a byte offset) on malformed input.
 */
bool parseJson(std::string_view text, JsonValue &out, std::string &error);

/**
 * Validate the `schema` member of a versioned document root against
 * @p expect (e.g. "txrace-profile-v1"). On mismatch the error names
 * the offending JSON path and what was actually found — missing key,
 * wrong type, or unknown version — so fleet tooling can tell a stale
 * file from a corrupt one. Every versioned loader goes through this;
 * none of them may crash on foreign input.
 */
bool checkSchema(const JsonValue &doc, std::string_view expect,
                 std::string &error);

} // namespace txrace::telemetry

#endif // TXRACE_TELEMETRY_JSONPARSE_HH
