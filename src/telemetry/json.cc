#include "telemetry/json.hh"

#include <cmath>
#include <cstdio>

#include "support/log.hh"

namespace txrace::telemetry {

void
JsonWriter::newline()
{
    if (!pretty_)
        return;
    os_ << "\n";
    for (size_t i = 0; i < stack_.size(); ++i)
        os_ << "  ";
}

void
JsonWriter::preValue()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return;
    }
    if (stack_.empty())
        return;
    if (stack_.back() == Scope::Object)
        panic("JsonWriter: value without key inside object");
    if (hasElement_.back())
        os_ << ",";
    hasElement_.back() = true;
    newline();
}

void
JsonWriter::preKey()
{
    if (stack_.empty() || stack_.back() != Scope::Object)
        panic("JsonWriter: key outside object");
    if (pendingKey_)
        panic("JsonWriter: two keys in a row");
    if (hasElement_.back())
        os_ << ",";
    hasElement_.back() = true;
    newline();
}

void
JsonWriter::beginObject()
{
    preValue();
    os_ << "{";
    stack_.push_back(Scope::Object);
    hasElement_.push_back(false);
}

void
JsonWriter::endObject()
{
    if (stack_.empty() || stack_.back() != Scope::Object)
        panic("JsonWriter: endObject outside object");
    bool had = hasElement_.back();
    stack_.pop_back();
    hasElement_.pop_back();
    if (had)
        newline();
    os_ << "}";
}

void
JsonWriter::beginArray()
{
    preValue();
    os_ << "[";
    stack_.push_back(Scope::Array);
    hasElement_.push_back(false);
}

void
JsonWriter::endArray()
{
    if (stack_.empty() || stack_.back() != Scope::Array)
        panic("JsonWriter: endArray outside array");
    bool had = hasElement_.back();
    stack_.pop_back();
    hasElement_.pop_back();
    if (had)
        newline();
    os_ << "]";
}

void
JsonWriter::key(const std::string &name)
{
    preKey();
    writeEscaped(name);
    os_ << (pretty_ ? ": " : ":");
    pendingKey_ = true;
}

void
JsonWriter::writeEscaped(const std::string &s)
{
    os_ << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os_ << "\\\"";
            break;
          case '\\':
            os_ << "\\\\";
            break;
          case '\n':
            os_ << "\\n";
            break;
          case '\r':
            os_ << "\\r";
            break;
          case '\t':
            os_ << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                os_ << buf;
            } else {
                os_ << c;
            }
        }
    }
    os_ << '"';
}

void
JsonWriter::value(const std::string &s)
{
    preValue();
    writeEscaped(s);
}

void
JsonWriter::value(const char *s)
{
    value(std::string(s));
}

void
JsonWriter::value(uint64_t v)
{
    preValue();
    os_ << v;
}

void
JsonWriter::value(int64_t v)
{
    preValue();
    os_ << v;
}

void
JsonWriter::value(double v)
{
    preValue();
    if (!std::isfinite(v)) {
        // JSON has no Inf/NaN literal; clamp to null.
        os_ << "null";
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    os_ << buf;
}

void
JsonWriter::value(bool b)
{
    preValue();
    os_ << (b ? "true" : "false");
}

std::string
hex64(uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx", (unsigned long long)v);
    return buf;
}

} // namespace txrace::telemetry
