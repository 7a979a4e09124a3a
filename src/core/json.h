/**
 * @file
 * A small streaming JSON writer: the single place the project formats
 * JSON (run reports, sweep output, bench reports), so escaping, number
 * formatting and structural validity are handled once.
 */

#ifndef TWOLAYER_CORE_JSON_H_
#define TWOLAYER_CORE_JSON_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tli::core {

/** JSON string-escape @p s (control characters, quotes, backslash). */
std::string jsonEscape(std::string_view s);

/**
 * Streaming writer producing pretty-printed, strictly valid JSON.
 * Usage mirrors the document structure:
 *
 *   JsonWriter w(os);
 *   w.beginObject()
 *       .field("schema", "tli-run-report-v1")
 *       .key("runs").beginArray().value(1).value(2).endArray()
 *   .endObject();
 *
 * Structural misuse (a value where a key is required, unbalanced
 * nesting at destruction) trips an assertion — callers never see
 * malformed output silently.
 */
class JsonWriter
{
  public:
    /**
     * @param fullPrecision render doubles with %.17g instead of the
     *        report default %.12g. Required wherever the document is
     *        read back and must reproduce the original values exactly
     *        (the exec result cache); reports keep the readable form.
     */
    explicit JsonWriter(std::ostream &os, int indentWidth = 2,
                        bool fullPrecision = false);
    ~JsonWriter();

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; the next call must produce its value. */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v) { return value(static_cast<std::int64_t>(v)); }
    JsonWriter &value(unsigned v)
    {
        return value(static_cast<std::uint64_t>(v));
    }
    JsonWriter &value(bool v);
    JsonWriter &null();

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    field(std::string_view k, T v)
    {
        key(k);
        return value(v);
    }

  private:
    void beforeValue();
    void newline();

    std::ostream &os_;
    int indentWidth_;
    bool fullPrecision_;
    /** One frame per open container: true = object, false = array. */
    std::vector<bool> stack_;
    /** Elements already written in each open container. */
    std::vector<std::size_t> counts_;
    bool keyPending_ = false;
};

/**
 * A parsed JSON document node — the reading counterpart of JsonWriter,
 * used wherever the project consumes its own documents (the exec
 * result cache). A small recursive-descent DOM, not a general-purpose
 * library: numbers are doubles (plus an exact int64 view when the
 * lexeme is integral), object keys are unique-by-last-wins.
 */
class JsonValue
{
  public:
    enum class Kind
    {
        null,
        boolean,
        number,
        string,
        array,
        object,
    };

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::null; }
    /** Whether asInt() may be called (an integral number lexeme). */
    bool isInteger() const { return kind_ == Kind::number && integral_; }

    /** Typed accessors; asserts on kind mismatch. */
    bool asBool() const;
    double asDouble() const;
    /** Exact integer value; asserts unless the lexeme was integral. */
    std::int64_t asInt() const;
    std::uint64_t asUint() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;

    /** Object member lookup; null if absent or not an object. */
    const JsonValue *find(std::string_view key) const;
    /** Object member; asserts when absent. */
    const JsonValue &at(std::string_view key) const;

    /** Array element count (0 for non-arrays). */
    std::size_t size() const;
    const JsonValue &operator[](std::size_t i) const;

  private:
    friend class JsonParser;

    Kind kind_ = Kind::null;
    bool bool_ = false;
    double number_ = 0;
    /** Set when the number lexeme had no '.', 'e' or 'E'. */
    bool integral_ = false;
    std::int64_t int_ = 0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<std::pair<std::string, JsonValue>> object_;
};

/**
 * Parse one JSON document.
 * @param[out] error set to a message with offset context on failure.
 * @return the document, or std::nullopt on malformed input.
 */
std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string *error = nullptr);

} // namespace tli::core

#endif // TWOLAYER_CORE_JSON_H_
