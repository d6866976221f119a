/**
 * @file
 * Kernel speedup gate over two BENCH_*.json files.
 *
 * compareBench() loads a committed baseline and a freshly measured
 * file (both "inca.bench.v1", see bench_json.hh) and turns each
 * vector entry into a ratio to the same file's scalar entry of the
 * same benchmark. Both variants run seconds apart in one process, so
 * machine-wide throughput drift -- noisy neighbours, thermal state, a
 * different CI runner -- cancels, and what is gated is the SIMD
 * speedup shape. The ratios are matched by (name, isa); any current
 * one more than 15% above its baseline is a regression. Benchmarks
 * with no scalar twin are not gated. A baseline entry missing from
 * the current file is a note, not a failure: the runner may lack the
 * AVX-512 the baseline machine had.
 *
 * The parser underneath is a deliberately small recursive-descent
 * JSON reader (objects, arrays, strings, numbers, bools, null; no
 * \uXXXX escapes) -- enough for files this repo emits itself, and
 * unit-tested against synthetic fixtures in test_bench_harness.
 */

#ifndef INCA_BENCH_BENCH_COMPARE_HH
#define INCA_BENCH_BENCH_COMPARE_HH

#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace inca {
namespace bench {

/** Minimal JSON document node. */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /** Object member by key, or nullptr. */
    const JsonValue *
    get(const std::string &key) const
    {
        if (kind != Kind::Object)
            return nullptr;
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }
};

namespace detail {

class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string &err)
        : text_(text), err_(err)
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
    fail(const std::string &what)
    {
        if (err_.empty())
            err_ = what + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word, JsonValue &out, JsonValue::Kind kind,
            bool b)
    {
        const std::size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0)
            return fail("invalid literal");
        pos_ += len;
        out.kind = kind;
        out.boolean = b;
        return true;
    }

    bool
    string(std::string &out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return fail("unterminated escape");
                const char esc = text_[pos_++];
                switch (esc) {
                  case '"': c = '"'; break;
                  case '\\': c = '\\'; break;
                  case '/': c = '/'; break;
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'b': c = '\b'; break;
                  case 'f': c = '\f'; break;
                  default:
                    return fail("unsupported escape");
                }
            }
            out.push_back(c);
        }
        if (pos_ >= text_.size())
            return fail("unterminated string");
        ++pos_; // closing quote
        return true;
    }

    bool
    value(JsonValue &out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == 'n')
            return literal("null", out, JsonValue::Kind::Null, false);
        if (c == 't')
            return literal("true", out, JsonValue::Kind::Bool, true);
        if (c == 'f')
            return literal("false", out, JsonValue::Kind::Bool,
                           false);
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return string(out.string);
        }
        if (c == '{') {
            out.kind = JsonValue::Kind::Object;
            ++pos_;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skipWs();
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
                out.object.emplace_back(std::move(key),
                                        std::move(member));
                skipWs();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (pos_ < text_.size() && text_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            out.kind = JsonValue::Kind::Array;
            ++pos_;
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
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (pos_ < text_.size() && text_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
        }
        // Number.
        const std::size_t start = pos_;
        if (c == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("expected value");
        char *end = nullptr;
        const std::string tok = text_.substr(start, pos_ - start);
        out.number = std::strtod(tok.c_str(), &end);
        if (end == nullptr || *end != '\0')
            return fail("malformed number");
        out.kind = JsonValue::Kind::Number;
        return true;
    }

    const std::string &text_;
    std::string &err_;
    std::size_t pos_ = 0;
};

} // namespace detail

/** Parse @p text; on failure returns Null and sets @p err. */
inline JsonValue
parseJson(const std::string &text, std::string &err)
{
    err.clear();
    JsonValue root;
    detail::JsonParser parser(text, err);
    if (!parser.parse(root))
        return JsonValue{};
    return root;
}

/** A current ratio above (1 + this) times its baseline fails. */
inline constexpr double kRegressionThreshold = 0.15;

struct CompareResult
{
    bool ok = false;
    std::string error; ///< parse/schema problem ("" when none)
    std::vector<std::string> regressions;
    std::vector<std::string> notes; ///< missing entries, improvements
};

namespace detail {

/** (name|isa) -> trimmed mean over the same name's scalar entry. */
inline bool
loadEntries(const std::string &json,
            std::map<std::string, double> &entries, std::string &err)
{
    const JsonValue root = parseJson(json, err);
    if (!err.empty())
        return false;
    const JsonValue *schema = root.get("schema");
    if (schema == nullptr ||
        schema->kind != JsonValue::Kind::String) {
        err = "missing \"schema\"";
        return false;
    }
    if (schema->string != "inca.bench.v1") {
        err = "unsupported schema '" + schema->string + "'";
        return false;
    }
    const JsonValue *benches = root.get("benchmarks");
    if (benches == nullptr ||
        benches->kind != JsonValue::Kind::Array) {
        err = "missing \"benchmarks\" array";
        return false;
    }
    std::map<std::string, double> means;
    for (const JsonValue &b : benches->array) {
        const JsonValue *name = b.get("name");
        const JsonValue *isa = b.get("isa");
        const JsonValue *mean = b.get("trimmed_mean_ns");
        if (name == nullptr || isa == nullptr || mean == nullptr ||
            mean->kind != JsonValue::Kind::Number) {
            err = "benchmark entry missing name/isa/trimmed_mean_ns";
            return false;
        }
        means[name->string + "|" + isa->string] = mean->number;
    }
    for (const auto &[key, v] : means) {
        const std::size_t bar = key.rfind('|');
        if (key.substr(bar + 1) == "scalar")
            continue; // the denominator, not a gated entry
        const auto scalar = means.find(key.substr(0, bar) + "|scalar");
        if (scalar == means.end() || scalar->second <= 0.0)
            continue; // no twin to cancel noise against
        entries[key] = v / scalar->second;
    }
    return true;
}

} // namespace detail

/**
 * Compare two bench JSON documents (file CONTENTS, not paths).
 * result.ok is false on any parse error or regression.
 */
inline CompareResult
compareBench(const std::string &baselineJson,
             const std::string &currentJson)
{
    CompareResult res;
    std::map<std::string, double> base, cur;
    if (!detail::loadEntries(baselineJson, base, res.error)) {
        res.error = "baseline: " + res.error;
        return res;
    }
    if (!detail::loadEntries(currentJson, cur, res.error)) {
        res.error = "current: " + res.error;
        return res;
    }

    for (const auto &[key, baseVal] : base) {
        const auto it = cur.find(key);
        if (it == cur.end()) {
            res.notes.push_back("missing from current: " + key);
            continue;
        }
        const double ratio =
            baseVal <= 0.0 ? 1.0 : it->second / baseVal;
        char line[256];
        std::snprintf(line, sizeof(line), "%s: %.3fx baseline",
                      key.c_str(), ratio);
        if (ratio > 1.0 + kRegressionThreshold)
            res.regressions.push_back(line);
        else if (ratio < 1.0 - kRegressionThreshold)
            res.notes.push_back(std::string(line) + " (improved)");
    }
    for (const auto &[key, v] : cur) {
        (void)v;
        if (base.find(key) == base.end())
            res.notes.push_back("new benchmark (no baseline): " +
                                key);
    }
    res.ok = res.regressions.empty();
    return res;
}

} // namespace bench
} // namespace inca

#endif // INCA_BENCH_BENCH_COMPARE_HH
