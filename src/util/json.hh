/**
 * @file
 * Minimal JSON support: a writer for machine-readable tool output
 * (ebda_tool --json, sweep results) and a small recursive-descent
 * parser (JsonValue / parseJson) for sweep specs and the sweep result
 * cache. The writer emits correct string escaping with stable key
 * order (insertion order); the parser accepts strict JSON and keeps
 * the raw lexeme of numbers so 64-bit integers (e.g. RNG seeds)
 * round-trip exactly.
 */

#ifndef EBDA_UTIL_JSON_HH
#define EBDA_UTIL_JSON_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace ebda {

/**
 * Builder for one JSON value tree. Usage:
 * @code
 *   JsonWriter w;
 *   w.beginObject();
 *   w.field("latency", 12.5);
 *   w.field("deadlocked", false);
 *   w.beginArray("hops");
 *   w.value(1); w.value(2);
 *   w.end();   // array
 *   w.end();   // object
 *   std::cout << w.str();
 * @endcode
 */
class JsonWriter
{
  public:
    /** Open the root (or a nested) object. With a key when inside an
     *  object. */
    void beginObject();
    void beginObject(const std::string &key);

    /** Open an array. */
    void beginArray();
    void beginArray(const std::string &key);

    /** Close the innermost object/array. */
    void end();

    /** Key/value fields inside an object. */
    void field(const std::string &key, const std::string &value);
    void field(const std::string &key, const char *value);
    void field(const std::string &key, double value);
    /** Double with explicit significant digits; 17 round-trips any
     *  IEEE-754 double exactly through parse/print. */
    void field(const std::string &key, double value, int sigDigits);
    void field(const std::string &key, std::uint64_t value);
    void field(const std::string &key, int value);
    void field(const std::string &key, bool value);

    /** Bare values inside an array. */
    void value(const std::string &v);
    void value(double v);
    void value(std::uint64_t v);
    void value(int v);
    void value(bool v);

    /** The serialized document (valid once all scopes are closed). */
    const std::string &str() const { return out; }

    /** True when every begun scope has been ended. */
    bool complete() const { return depth == 0 && started; }

  private:
    void comma();
    void key(const std::string &k);
    static std::string escape(const std::string &s);

    std::string out;
    int depth = 0;
    bool started = false;
    /** Whether the current scope already holds an element. */
    std::vector<bool> hasElement;
    /** Closing character per open scope ('}' or ']'). */
    std::vector<char> closer;
};

/**
 * One parsed JSON value. Objects preserve member insertion order;
 * numbers keep their raw lexeme so unsigned 64-bit values larger than
 * 2^53 are recoverable without double rounding.
 */
class JsonValue
{
  public:
    enum class Type : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;

    Type type() const { return kind; }
    bool isNull() const { return kind == Type::Null; }
    bool isBool() const { return kind == Type::Bool; }
    bool isNumber() const { return kind == Type::Number; }
    bool isString() const { return kind == Type::String; }
    bool isArray() const { return kind == Type::Array; }
    bool isObject() const { return kind == Type::Object; }

    /** Typed accessors; the fallback is returned on type mismatch. */
    bool asBool(bool fallback = false) const;
    double asDouble(double fallback = 0.0) const;
    /** Exact for integer lexemes up to 2^64-1 (falls back to the
     *  double value otherwise). */
    std::uint64_t asU64(std::uint64_t fallback = 0) const;

    /**
     * Checked integer read: the value when this is a number with an
     * integral value that `Int` can hold, std::nullopt otherwise —
     * never a truncated fraction or an out-of-range cast. Integer
     * lexemes are read exactly over the whole 64-bit range; "4.0" and
     * "1e3" are integral.
     */
    template <typename Int>
    std::optional<Int>
    asInteger() const
    {
        static_assert(std::is_integral_v<Int>);
        bool negative = false;
        std::uint64_t magnitude = 0;
        if (!integral(negative, magnitude))
            return std::nullopt;
        using Limits = std::numeric_limits<Int>;
        if (!negative) {
            if (magnitude > static_cast<std::uint64_t>(Limits::max()))
                return std::nullopt;
            return static_cast<Int>(magnitude);
        }
        if constexpr (std::is_unsigned_v<Int>) {
            return std::nullopt;
        } else {
            // |min| == max + 1 for two's complement types.
            if (magnitude - 1 > static_cast<std::uint64_t>(Limits::max()))
                return std::nullopt;
            return static_cast<Int>(-static_cast<Int>(magnitude - 1) - 1);
        }
    }

    /** Sign and magnitude of an integral number (magnitude < 2^64);
     *  false for anything else. Zero is never negative. */
    bool integral(bool &negative, std::uint64_t &magnitude) const;
    const std::string &asString() const { return text; }

    /** Array access. */
    std::size_t size() const { return items.size(); }
    const JsonValue &at(std::size_t i) const { return items[i]; }
    const std::vector<JsonValue> &elements() const { return items; }

    /** Object access: member by key (nullptr when absent). */
    const JsonValue *find(const std::string &key) const;
    const std::vector<std::pair<std::string, JsonValue>> &members() const
    {
        return fields;
    }

  private:
    friend class JsonParser;

    Type kind = Type::Null;
    bool boolean = false;
    double number = 0.0;
    /** String payload, or the raw number lexeme. */
    std::string text;
    std::vector<JsonValue> items;
    std::vector<std::pair<std::string, JsonValue>> fields;
};

/**
 * Parse one JSON document (strict grammar; trailing garbage is an
 * error). Returns std::nullopt and sets *error on malformed input.
 */
std::optional<JsonValue> parseJson(const std::string &text,
                                   std::string *error = nullptr);

} // namespace ebda

#endif // EBDA_UTIL_JSON_HH
