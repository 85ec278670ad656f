/**
 * @file
 * Minimal JSON emission and validation for the metrics export layer.
 *
 * The simulator has no third-party dependencies, so JSON support is
 * built in: a streaming writer with automatic comma/indent handling
 * (enough to serialise a MetricsDocument) and a strict recursive-
 * descent validator the tests check emitted documents with.
 */

#ifndef DLSIM_STATS_JSON_WRITER_HH
#define DLSIM_STATS_JSON_WRITER_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace dlsim::stats
{

/** Escape a string for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * Format a double as a valid JSON number. JSON has no NaN/Inf, so
 * non-finite values serialise as 0 (metrics should never produce
 * them; this keeps a bad sample from corrupting a whole document).
 */
std::string jsonNumber(double v);

/**
 * Streaming JSON writer.
 *
 * Usage:
 * @code
 *   JsonWriter w(os);
 *   w.beginObject();
 *   w.field("schema", "dlsim-metrics-v1");
 *   w.key("runs");
 *   w.beginArray();
 *   ...
 *   w.endArray();
 *   w.endObject();
 * @endcode
 *
 * The writer inserts commas, newlines, and indentation; the caller is
 * responsible for balanced begin/end calls and for emitting a key
 * before every value inside an object.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os, int indentWidth = 2);

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit an object key; the next value() attaches to it. */
    void key(const std::string &k);

    void value(const std::string &v);
    void value(const char *v);
    void value(double v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(bool v);

    /** key() + value() in one call. */
    void field(const std::string &k, const std::string &v);
    void field(const std::string &k, const char *v);
    void field(const std::string &k, double v);
    void field(const std::string &k, std::uint64_t v);
    void field(const std::string &k, bool v);

  private:
    void beforeValue();
    void indent();
    void raw(const std::string &text);

    struct Level
    {
        bool isArray = false;
        std::size_t items = 0;
    };

    std::ostream &os_;
    int indentWidth_;
    std::vector<Level> stack_;
    bool pendingKey_ = false;
};

/**
 * Validate that `text` is exactly one well-formed JSON value with
 * nothing but whitespace after it. Builds no document — this is a
 * checker, not a parser library.
 *
 * @param text  The candidate document.
 * @param error When non-null, receives a position-annotated message
 *              on failure.
 * @return True when the text is valid JSON.
 */
bool jsonValidate(const std::string &text,
                  std::string *error = nullptr);

} // namespace dlsim::stats

#endif // DLSIM_STATS_JSON_WRITER_HH
