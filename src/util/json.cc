#include "json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "logging.hh"

namespace ebda {

void
JsonWriter::comma()
{
    if (!hasElement.empty()) {
        if (hasElement.back())
            out += ',';
        hasElement.back() = true;
    }
}

void
JsonWriter::key(const std::string &k)
{
    comma();
    out += '"';
    out += escape(k);
    out += "\":";
}

std::string
JsonWriter::escape(const std::string &s)
{
    std::string r;
    r.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            r += "\\\"";
            break;
          case '\\':
            r += "\\\\";
            break;
          case '\n':
            r += "\\n";
            break;
          case '\t':
            r += "\\t";
            break;
          case '\r':
            r += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                r += buf;
            } else {
                r += c;
            }
        }
    }
    return r;
}

void
JsonWriter::beginObject()
{
    comma();
    out += '{';
    ++depth;
    started = true;
    hasElement.push_back(false);
    closer.push_back('}');
}

void
JsonWriter::beginObject(const std::string &k)
{
    key(k);
    out += '{';
    ++depth;
    hasElement.push_back(false);
    closer.push_back('}');
}

void
JsonWriter::beginArray()
{
    comma();
    out += '[';
    ++depth;
    started = true;
    hasElement.push_back(false);
    closer.push_back(']');
}

void
JsonWriter::beginArray(const std::string &k)
{
    key(k);
    out += '[';
    ++depth;
    hasElement.push_back(false);
    closer.push_back(']');
}

void
JsonWriter::end()
{
    EBDA_ASSERT(depth > 0, "JsonWriter::end with no open scope");
    out += closer.back();
    closer.pop_back();
    --depth;
    hasElement.pop_back();
}

void
JsonWriter::field(const std::string &k, const std::string &v)
{
    key(k);
    out += '"';
    out += escape(v);
    out += '"';
}

void
JsonWriter::field(const std::string &k, const char *v)
{
    field(k, std::string(v));
}

void
JsonWriter::field(const std::string &k, double v)
{
    key(k);
    if (std::isfinite(v)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        out += buf;
    } else {
        out += "null";
    }
}

void
JsonWriter::field(const std::string &k, std::uint64_t v)
{
    key(k);
    out += std::to_string(v);
}

void
JsonWriter::field(const std::string &k, int v)
{
    key(k);
    out += std::to_string(v);
}

void
JsonWriter::field(const std::string &k, bool v)
{
    key(k);
    out += v ? "true" : "false";
}

void
JsonWriter::value(const std::string &v)
{
    comma();
    out += '"';
    out += escape(v);
    out += '"';
}

void
JsonWriter::value(double v)
{
    comma();
    if (std::isfinite(v)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        out += buf;
    } else {
        out += "null";
    }
}

void
JsonWriter::value(std::uint64_t v)
{
    comma();
    out += std::to_string(v);
}

void
JsonWriter::value(int v)
{
    comma();
    out += std::to_string(v);
}

void
JsonWriter::value(bool v)
{
    comma();
    out += v ? "true" : "false";
}

void
JsonWriter::field(const std::string &k, double v, int sig_digits)
{
    key(k);
    if (std::isfinite(v)) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.*g", sig_digits, v);
        out += buf;
    } else {
        out += "null";
    }
}

// --------------------------------------------------------------------
// Parser
// --------------------------------------------------------------------

bool
JsonValue::asBool(bool fallback) const
{
    return kind == Type::Bool ? boolean : fallback;
}

double
JsonValue::asDouble(double fallback) const
{
    return kind == Type::Number ? number : fallback;
}


std::uint64_t
JsonValue::asU64(std::uint64_t fallback) const
{
    if (kind != Type::Number)
        return fallback;
    // Integer lexeme: parse exactly (doubles lose bits past 2^53).
    if (text.find_first_of(".eE") == std::string::npos
        && !text.empty() && text[0] != '-') {
        errno = 0;
        char *end = nullptr;
        const auto v = std::strtoull(text.c_str(), &end, 10);
        if (errno == 0 && end && *end == '\0')
            return v;
    }
    return static_cast<std::uint64_t>(number);
}

bool
JsonValue::integral(bool &negative, std::uint64_t &magnitude) const
{
    if (kind != Type::Number)
        return false;
    if (text.find_first_of(".eE") == std::string::npos) {
        // Integer lexeme: parse the digits exactly.
        const bool minus = !text.empty() && text[0] == '-';
        errno = 0;
        char *end = nullptr;
        const char *digits = text.c_str() + (minus ? 1 : 0);
        const auto v = std::strtoull(digits, &end, 10);
        if (errno != 0 || end == digits || *end != '\0')
            return false;
        negative = minus && v != 0;
        magnitude = v;
        return true;
    }
    // Fraction or exponent lexeme: integral only if the double is, and
    // within 64 bits of magnitude (2^64 is exact in a double).
    if (!std::isfinite(number) || number != std::trunc(number)
        || std::fabs(number) >= 18446744073709551616.0)
        return false;
    negative = number < 0;
    magnitude = static_cast<std::uint64_t>(std::fabs(number));
    return true;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Type::Object)
        return nullptr;
    for (const auto &[k, v] : fields)
        if (k == key)
            return &v;
    return nullptr;
}

/** Recursive-descent JSON parser over a string view of the input. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : in(text) {}

    std::optional<JsonValue>
    parse(std::string *error)
    {
        JsonValue v;
        if (!parseValue(v)) {
            if (error)
                *error = err + " at offset " + std::to_string(pos);
            return std::nullopt;
        }
        skipWs();
        if (pos != in.size()) {
            if (error)
                *error = "trailing characters at offset "
                         + std::to_string(pos);
            return std::nullopt;
        }
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos < in.size()
               && (in[pos] == ' ' || in[pos] == '\t' || in[pos] == '\n'
                   || in[pos] == '\r'))
            ++pos;
    }

    bool
    fail(const std::string &what)
    {
        if (err.empty())
            err = what;
        return false;
    }

    /** Current location for path-named errors ("a.b[2].c"). */
    std::string
    atPath() const
    {
        return path.empty() ? std::string("<root>") : path;
    }

    std::string
    keyPath(const std::string &key) const
    {
        return path.empty() ? key : path + '.' + key;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (in.compare(pos, n, word) != 0)
            return false;
        pos += n;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos >= in.size())
            return fail("unexpected end of input");
        const char c = in[pos];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"')
            return parseString(out);
        if (c == 't' || c == 'f') {
            out.kind = JsonValue::Type::Bool;
            out.boolean = (c == 't');
            return literal(c == 't' ? "true" : "false")
                       ? true
                       : fail("bad literal");
        }
        if (c == 'n') {
            out.kind = JsonValue::Type::Null;
            return literal("null") ? true : fail("bad literal");
        }
        return parseNumber(out);
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Type::Object;
        ++pos; // '{'
        ++depth;
        skipWs();
        if (pos < in.size() && in[pos] == '}') {
            ++pos;
            --depth;
            return true;
        }
        while (true) {
            skipWs();
            JsonValue key;
            if (pos >= in.size() || in[pos] != '"'
                || !parseString(key))
                return fail("expected object key");
            skipWs();
            if (pos >= in.size() || in[pos] != ':')
                return fail("expected ':'");
            ++pos;
            // Duplicate keys silently shadow on lookup (find returns
            // the first match): reject them outright, naming the path.
            for (const auto &[k, existing] : out.fields) {
                if (k == key.text)
                    return fail("duplicate object key '"
                                + keyPath(key.text) + "'");
            }
            const std::size_t plen = path.size();
            if (!path.empty())
                path += '.';
            path += key.text;
            JsonValue val;
            if (!parseValue(val))
                return false;
            path.resize(plen);
            out.fields.emplace_back(key.text, std::move(val));
            skipWs();
            if (pos >= in.size())
                return fail("unterminated object");
            if (in[pos] == ',') {
                ++pos;
                continue;
            }
            if (in[pos] == '}') {
                ++pos;
                --depth;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Type::Array;
        ++pos; // '['
        ++depth;
        skipWs();
        if (pos < in.size() && in[pos] == ']') {
            ++pos;
            --depth;
            return true;
        }
        while (true) {
            const std::size_t plen = path.size();
            path += '[' + std::to_string(out.items.size()) + ']';
            JsonValue val;
            if (!parseValue(val))
                return false;
            path.resize(plen);
            out.items.push_back(std::move(val));
            skipWs();
            if (pos >= in.size())
                return fail("unterminated array");
            if (in[pos] == ',') {
                ++pos;
                continue;
            }
            if (in[pos] == ']') {
                ++pos;
                --depth;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseString(JsonValue &out)
    {
        out.kind = JsonValue::Type::String;
        ++pos; // '"'
        std::string s;
        while (pos < in.size()) {
            const char c = in[pos];
            if (c == '"') {
                ++pos;
                out.text = std::move(s);
                return true;
            }
            if (c == '\\') {
                if (pos + 1 >= in.size())
                    return fail("unterminated escape");
                const char e = in[pos + 1];
                pos += 2;
                switch (e) {
                  case '"': s += '"'; break;
                  case '\\': s += '\\'; break;
                  case '/': s += '/'; break;
                  case 'b': s += '\b'; break;
                  case 'f': s += '\f'; break;
                  case 'n': s += '\n'; break;
                  case 'r': s += '\r'; break;
                  case 't': s += '\t'; break;
                  case 'u': {
                    if (pos + 4 > in.size())
                        return fail("bad \\u escape");
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = in[pos + i];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            cp |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            cp |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    pos += 4;
                    // UTF-8 encode the BMP code point (surrogate
                    // pairs are passed through as-is).
                    if (cp < 0x80) {
                        s += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        s += static_cast<char>(0xc0 | (cp >> 6));
                        s += static_cast<char>(0x80 | (cp & 0x3f));
                    } else {
                        s += static_cast<char>(0xe0 | (cp >> 12));
                        s += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                        s += static_cast<char>(0x80 | (cp & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("bad escape");
                }
                continue;
            }
            s += c;
            ++pos;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos;
        if (pos < in.size() && in[pos] == '-')
            ++pos;
        while (pos < in.size()
               && (std::isdigit(static_cast<unsigned char>(in[pos]))
                   || in[pos] == '.' || in[pos] == 'e' || in[pos] == 'E'
                   || in[pos] == '+' || in[pos] == '-'))
            ++pos;
        if (pos == start)
            return fail("expected a value");
        out.kind = JsonValue::Type::Number;
        out.text = in.substr(start, pos - start);
        errno = 0;
        char *end = nullptr;
        out.number = std::strtod(out.text.c_str(), &end);
        if (end != out.text.c_str() + out.text.size())
            return fail("bad number");
        // JSON has no NaN/Inf; an overflowing lexeme like 1e999 would
        // otherwise smuggle one in and poison every downstream
        // computation silently.
        if (!std::isfinite(out.number))
            return fail("non-finite number at '" + atPath() + "'");
        return true;
    }

    static constexpr int kMaxDepth = 128;

    const std::string &in;
    std::size_t pos = 0;
    int depth = 0;
    std::string err;
    /** Key/index trail to the value being parsed (error paths). */
    std::string path;
};

std::optional<JsonValue>
parseJson(const std::string &text, std::string *error)
{
    return JsonParser(text).parse(error);
}

} // namespace ebda
