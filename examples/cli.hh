/**
 * @file
 * Strict command-line value parsers shared by the example drivers.
 *
 * Every parser consumes the whole token or dies with fatal(), naming
 * the flag and the offending text -- "--batch 64x" must not silently
 * run with batch 64 (strtol semantics), and "--batch banana" must not
 * run with batch 0. Numbers must also be representable: "nan" and
 * "inf" (which strtod accepts) are rejected, and an integer stored in
 * an int must fit one. Bad CLI input is a user error, so the exit
 * path is fatal(), never panic().
 */

#ifndef INCA_EXAMPLES_CLI_HH
#define INCA_EXAMPLES_CLI_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace inca {
namespace cli {

/** Parse a whole-token signed integer or die. */
inline long long
parseInt(const char *flag, const char *text)
{
    if (!text || *text == '\0')
        fatal("%s needs a number, got an empty value", flag);
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE)
        fatal("%s: '%s' is not an integer", flag, text);
    return v;
}

/** Parse a strictly positive integer or die. */
inline long long
parsePositive(const char *flag, const char *text)
{
    const long long v = parseInt(flag, text);
    if (v <= 0)
        fatal("%s must be positive, got %lld", flag, v);
    return v;
}

/**
 * Parse a whole-token integer in [@p lo, INT_MAX] or die, so storing
 * the result in an int never wraps ("--replicas 4294967297" must not
 * run one replica).
 */
inline int
parseIntIn(const char *flag, const char *text,
           int lo = std::numeric_limits<int>::min())
{
    constexpr int hi = std::numeric_limits<int>::max();
    const long long v = parseInt(flag, text);
    if (v < lo || v > hi)
        fatal("%s must be in [%d, %d], got %lld", flag, lo, hi, v);
    return int(v);
}

/** Parse a whole-token unsigned 64-bit integer or die. */
inline std::uint64_t
parseU64(const char *flag, const char *text)
{
    if (!text || *text == '\0')
        fatal("%s needs a number, got an empty value", flag);
    if (*text == '-')
        fatal("%s must be non-negative, got '%s'", flag, text);
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE)
        fatal("%s: '%s' is not a non-negative integer", flag, text);
    return v;
}

/** Parse a whole-token floating-point value or die. */
inline double
parseDouble(const char *flag, const char *text)
{
    if (!text || *text == '\0')
        fatal("%s needs a number, got an empty value", flag);
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE)
        fatal("%s: '%s' is not a number", flag, text);
    if (!std::isfinite(v))
        fatal("%s: '%s' is not a finite number", flag, text);
    return v;
}

/** Parse a comma-separated list of doubles ("1e-4,1e-3") or die. */
inline std::vector<double>
parseDoubleList(const char *flag, const char *text)
{
    if (!text || *text == '\0')
        fatal("%s needs a comma-separated list, got an empty value",
              flag);
    std::vector<double> out;
    const std::string s = text;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        const std::string token = s.substr(pos, comma - pos);
        out.push_back(parseDouble(flag, token.c_str()));
        pos = comma + 1;
    }
    return out;
}

/**
 * Parse a duration with a required unit suffix ("500ms", "2s",
 * "750us", "1e3ns") into seconds, or die. The bare token "0" is
 * accepted without a unit (zero is zero in any unit); every other
 * unitless or negative value is a user error.
 */
inline double
parseDuration(const char *flag, const char *text)
{
    if (!text || *text == '\0')
        fatal("%s needs a duration like '500ms' or '2s', got an "
              "empty value",
              flag);
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || errno == ERANGE)
        fatal("%s: '%s' is not a duration", flag, text);
    if (!std::isfinite(v))
        fatal("%s: '%s' is not a finite duration", flag, text);
    if (v < 0.0)
        fatal("%s must be non-negative, got '%s'", flag, text);
    const std::string unit = end;
    if (unit.empty()) {
        if (v == 0.0)
            return 0.0;
        fatal("%s: '%s' needs a unit suffix (ns, us, ms, s)", flag,
              text);
    }
    if (unit == "ns")
        return v * 1e-9;
    if (unit == "us")
        return v * 1e-6;
    if (unit == "ms")
        return v * 1e-3;
    if (unit == "s")
        return v;
    fatal("%s: unknown duration unit '%s' in '%s' (expected ns, us, "
          "ms, or s)",
          flag, unit.c_str(), text);
}

/**
 * Parse a strictly positive event rate ("80/s", "1.5k/s", "2M/s")
 * into events per second, or die. The "/s" suffix is optional on a
 * bare number ("80" means 80/s) but required after an SI multiplier,
 * so "1.5k" alone does not parse.
 */
inline double
parseRate(const char *flag, const char *text)
{
    if (!text || *text == '\0')
        fatal("%s needs a rate like '80/s' or '1.5k/s', got an "
              "empty value",
              flag);
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (end == text || errno == ERANGE)
        fatal("%s: '%s' is not a rate", flag, text);
    std::string rest = end;
    bool scaled = false;
    if (!rest.empty()) {
        if (rest[0] == 'k' || rest[0] == 'K') {
            v *= 1e3;
            scaled = true;
        } else if (rest[0] == 'M') {
            v *= 1e6;
            scaled = true;
        } else if (rest[0] == 'G') {
            v *= 1e9;
            scaled = true;
        }
        if (scaled)
            rest = rest.substr(1);
    }
    if (!rest.empty() && rest != "/s")
        fatal("%s: trailing '%s' in '%s' (expected '/s')", flag,
              rest.c_str(), text);
    if (scaled && rest.empty())
        fatal("%s: '%s' needs '/s' after the multiplier", flag, text);
    if (!std::isfinite(v))
        fatal("%s: '%s' is not a finite rate", flag, text);
    if (v <= 0.0)
        fatal("%s must be positive, got '%s'", flag, text);
    return v;
}

/** Parse a comma-separated list of signed integers or die. */
inline std::vector<std::int64_t>
parseIntList(const char *flag, const char *text)
{
    if (!text || *text == '\0')
        fatal("%s needs a comma-separated list, got an empty value",
              flag);
    std::vector<std::int64_t> out;
    const std::string s = text;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        const std::string token = s.substr(pos, comma - pos);
        out.push_back(parseInt(flag, token.c_str()));
        pos = comma + 1;
    }
    return out;
}

} // namespace cli
} // namespace inca

#endif // INCA_EXAMPLES_CLI_HH
