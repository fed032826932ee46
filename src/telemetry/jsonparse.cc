#include "jsonparse.hh"

#include <cerrno>
#include <cstdlib>

namespace txrace::telemetry {

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto &[k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

uint64_t
JsonValue::asU64() const
{
    if (type != Type::Number || number.empty() || number[0] == '-')
        return 0;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(number.c_str(), &end, 10);
    if (errno || !end || *end != '\0')
        return 0;
    return v;
}

double
JsonValue::asDouble() const
{
    if (type != Type::Number)
        return 0.0;
    return std::strtod(number.c_str(), nullptr);
}

uint64_t
getU64(const JsonValue &obj, std::string_view key)
{
    const JsonValue *v = obj.find(key);
    return v ? v->asU64() : 0;
}

std::string
getStr(const JsonValue &obj, std::string_view key)
{
    const JsonValue *v = obj.find(key);
    return v && v->isString() ? v->str : std::string();
}

bool
getBool(const JsonValue &obj, std::string_view key)
{
    const JsonValue *v = obj.find(key);
    return v && v->type == JsonValue::Type::Bool && v->boolean;
}

namespace {

class Parser
{
  public:
    Parser(std::string_view text, std::string &error)
        : text_(text), error_(error)
    {
    }

    bool
    parse(JsonValue &out)
    {
        skipWs();
        if (!value(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const char *what)
    {
        error_ = std::string(what) + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("bad literal");
        pos_ += word.size();
        return true;
    }

    bool
    value(JsonValue &out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
          case '{':
            return object(out);
          case '[':
            return array(out);
          case '"':
            out.type = JsonValue::Type::String;
            return string(out.str);
          case 't':
            out.type = JsonValue::Type::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.type = JsonValue::Type::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.type = JsonValue::Type::Null;
            return literal("null");
          default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return number(out);
            return fail("unexpected character");
        }
    }

    bool
    object(JsonValue &out)
    {
        out.type = JsonValue::Type::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            std::string key;
            if (!string(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            skipWs();
            JsonValue member;
            if (!value(member))
                return false;
            out.object.emplace_back(std::move(key), std::move(member));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    array(JsonValue &out)
    {
        out.type = JsonValue::Type::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            JsonValue elem;
            if (!value(elem))
                return false;
            out.array.push_back(std::move(elem));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    string(std::string &out)
    {
        ++pos_; // opening quote
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"':  out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/':  out.push_back('/'); break;
              case 'b':  out.push_back('\b'); break;
              case 'f':  out.push_back('\f'); break;
              case 'n':  out.push_back('\n'); break;
              case 'r':  out.push_back('\r'); break;
              case 't':  out.push_back('\t'); break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("short \\u escape");
                uint32_t cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= h - '0';
                    else if (h >= 'a' && h <= 'f')
                        cp |= h - 'a' + 10;
                    else if (h >= 'A' && h <= 'F')
                        cp |= h - 'A' + 10;
                    else
                        return fail("bad \\u escape");
                }
                // Our writer only emits \u00XX for control bytes; emit
                // the UTF-8 encoding of whatever code point arrives.
                if (cp < 0x80) {
                    out.push_back(static_cast<char>(cp));
                } else if (cp < 0x800) {
                    out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
                    out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
                } else {
                    out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
                    out.push_back(
                        static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
                    out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
                }
                break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    number(JsonValue &out)
    {
        out.type = JsonValue::Type::Number;
        size_t start = pos_;
        if (text_[pos_] == '-')
            ++pos_;
        auto digits = [&] {
            size_t n = 0;
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9') {
                ++pos_;
                ++n;
            }
            return n;
        };
        if (!digits())
            return fail("bad number");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (!digits())
                return fail("bad fraction");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (!digits())
                return fail("bad exponent");
        }
        out.number.assign(text_.substr(start, pos_ - start));
        return true;
    }

    std::string_view text_;
    std::string &error_;
    size_t pos_ = 0;
};

} // namespace

bool
parseJson(std::string_view text, JsonValue &out, std::string &error)
{
    out = JsonValue{};
    error.clear();
    return Parser(text, error).parse(out);
}

bool
checkSchema(const JsonValue &doc, std::string_view expect,
            std::string &error)
{
    const std::string want(expect);
    if (!doc.isObject()) {
        error = "$: document is not an object (expected a \"" + want +
                "\" document)";
        return false;
    }
    const JsonValue *schema = doc.find("schema");
    if (!schema) {
        error = "$.schema: missing (expected \"" + want + "\")";
        return false;
    }
    if (!schema->isString()) {
        error = "$.schema: not a string (expected \"" + want + "\")";
        return false;
    }
    if (schema->str != expect) {
        error = "$.schema: unknown version \"" + schema->str +
                "\" (expected \"" + want + "\")";
        return false;
    }
    return true;
}

} // namespace txrace::telemetry
