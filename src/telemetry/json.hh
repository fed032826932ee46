/**
 * @file
 * Minimal streaming JSON writer for the telemetry exporters. No
 * external dependency; emits strictly valid JSON (escaped strings,
 * comma placement handled by a nesting stack).
 */

#ifndef TXRACE_TELEMETRY_JSON_HH
#define TXRACE_TELEMETRY_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace txrace::telemetry {

/**
 * Usage:
 *   JsonWriter w(os);
 *   w.beginObject();
 *   w.key("steps"); w.value(uint64_t{42});
 *   w.key("modes"); w.beginArray(); w.value("fast"); w.endArray();
 *   w.endObject();
 *
 * Keys must be emitted before each value inside an object; values
 * inside arrays are emitted directly. Misuse (value without key in an
 * object, unbalanced end) trips panic() — exporters are covered by
 * the schema tests, so this is a development guard, not error
 * handling.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os, bool pretty = true)
        : os_(os), pretty_(pretty)
    {
    }

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit the key of the next value (objects only). */
    void key(const std::string &name);

    void value(const std::string &s);
    void value(const char *s);
    void value(uint64_t v);
    void value(int64_t v);
    void value(int v) { value(static_cast<int64_t>(v)); }
    void value(double v);
    void value(bool b);

    /** Shorthand: key + value. */
    template <typename T>
    void
    field(const std::string &name, T v)
    {
        key(name);
        value(v);
    }

  private:
    enum class Scope : uint8_t { Object, Array };

    /** Comma/indent bookkeeping before any value or key. */
    void preValue();
    void preKey();
    void newline();
    void writeEscaped(const std::string &s);

    std::ostream &os_;
    bool pretty_;
    std::vector<Scope> stack_;
    /** Whether the current scope already holds an element. */
    std::vector<bool> hasElement_;
    /** A key was just written; next value belongs to it. */
    bool pendingKey_ = false;
};

/** @p v as "0x" plus 16 lower-case hex digits (fingerprints,
 *  config digests). */
std::string hex64(uint64_t v);

} // namespace txrace::telemetry

#endif // TXRACE_TELEMETRY_JSON_HH
