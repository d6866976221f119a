/**
 * @file
 * Minimal strict JSON validator for tests: enough of RFC 8259 to
 * reject anything Python's json.load / Perfetto would reject
 * (unbalanced structure, bare words, trailing commas, bad escapes),
 * without pulling a JSON library into the build. Also the cut that
 * byte-identity checks apply to every export: the JSON without its
 * provenance block.
 */

#ifndef INCA_TESTS_JSON_LINT_HH
#define INCA_TESTS_JSON_LINT_HH

#include <algorithm>
#include <cctype>
#include <string>

namespace inca {
namespace testutil {

class JsonLint
{
  public:
    explicit JsonLint(const std::string &text) : s_(text) {}

    /** True when the whole text is exactly one valid JSON value. */
    bool
    valid()
    {
        pos_ = 0;
        if (!value())
            return false;
        ws();
        return pos_ == s_.size();
    }

    size_t errorPos() const { return pos_; }

  private:
    void
    ws()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const size_t n = std::string(word).size();
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string()
    {
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (static_cast<unsigned char>(s_[pos_]) < 0x20)
                return false; // raw control char
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size())
                    return false;
                const char e = s_[pos_];
                if (e == 'u') {
                    for (int i = 1; i <= 4; ++i) {
                        if (pos_ + i >= s_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                s_[pos_ + i])))
                            return false;
                    }
                    pos_ += 4;
                } else if (e != '"' && e != '\\' && e != '/' &&
                           e != 'b' && e != 'f' && e != 'n' &&
                           e != 'r' && e != 't') {
                    return false;
                }
            }
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        const size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               std::isdigit(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
        if (pos_ == start || (pos_ == start + 1 && s_[start] == '-'))
            return false;
        if (pos_ < s_.size() && s_[pos_] == '.') {
            ++pos_;
            while (pos_ < s_.size() &&
                   std::isdigit(static_cast<unsigned char>(s_[pos_])))
                ++pos_;
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() &&
                (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            while (pos_ < s_.size() &&
                   std::isdigit(static_cast<unsigned char>(s_[pos_])))
                ++pos_;
        }
        return true;
    }

    bool
    object()
    {
        ++pos_; // '{'
        ws();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            ws();
            if (!string())
                return false;
            ws();
            if (pos_ >= s_.size() || s_[pos_] != ':')
                return false;
            ++pos_;
            if (!value())
                return false;
            ws();
            if (pos_ < s_.size() && s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < s_.size() && s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        ws();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            if (!value())
                return false;
            ws();
            if (pos_ < s_.size() && s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < s_.size() && s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    value()
    {
        ws();
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    const std::string &s_;
    size_t pos_ = 0;
};

/** One-shot helper: is @p text one complete valid JSON value? */
inline bool
jsonValid(const std::string &text)
{
    return JsonLint(text).valid();
}

/**
 * @p json with its "provenance" object cut out. That block records
 * the thread count, cache switch, build and INCA_* environment of the
 * run; every other byte of an export is a pure function of the spec,
 * so two runs compare equal through this. The cut leaves the
 * separators around the member, so the result is for comparing, not
 * parsing.
 */
inline std::string
withoutProvenance(const std::string &json)
{
    const size_t key = json.find("\"provenance\"");
    if (key == std::string::npos)
        return json;
    size_t i = json.find('{', key);
    int depth = 0;
    bool quoted = false;
    for (; i < json.size(); ++i) {
        const char c = json[i];
        if (quoted) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                quoted = false;
        } else if (c == '"') {
            quoted = true;
        } else if (c == '{') {
            ++depth;
        } else if (c == '}' && --depth == 0) {
            break;
        }
    }
    return json.substr(0, key) +
           json.substr(std::min(i + 1, json.size()));
}

} // namespace testutil
} // namespace inca

#endif // INCA_TESTS_JSON_LINT_HH
