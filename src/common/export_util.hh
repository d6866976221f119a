/**
 * @file
 * Shared export plumbing: the number writer (printf "%.17g" bytes,
 * exact double round-trip, computed in integers for the magnitudes
 * simulated times take), the RFC-4180 CSV field quoter, the JSON
 * string escaper, and the standard run-provenance manifest. These
 * started life inside sim/export.cc; they live in common so every
 * emitter (per-layer run export, DSE frontier and journal, campaign,
 * serving and bottleneck reports, IR disassembly) writes the same
 * bytes for the same content instead of each carrying a private copy
 * that drifts.
 */

#ifndef INCA_COMMON_EXPORT_UTIL_HH
#define INCA_COMMON_EXPORT_UTIL_HH

#include <cstddef>
#include <string>

namespace inca {

/** The most bytes writeNum17 writes: "-" + 17 digits + "." + "e-308". */
constexpr std::size_t kNum17Bytes = 24;

/**
 * Write @p v at @p p exactly as C-locale printf "%.17g" prints it --
 * 17 significant digits, so every double round-trips, including
 * "inf", "-inf", "nan" and "-nan" -- and return the end of what was
 * written. [p, p + kNum17Bytes) is the scratch window: the writer
 * may store anywhere in it and never past it, so a caller reserves
 * kNum17Bytes even where the number turns out shorter.
 *
 * A finite normal v = m * 2^e (m < 2^53) whose binary exponent
 * floor(log2 |v|) lies in [-36, 56], i.e. 2^-36 (~1.5e-11) <= |v| <
 * 2^57 (~1.4e17), takes an exact integer path. With k the decade
 * estimate floor(floor(log2 |v|) * log10 2) (the true decade or one
 * below), v * 10^(16-k) = m * 5^(16-k) * 2^(e+16-k) and 16 - k is in
 * [0, 27], so it fits an unsigned 128-bit product (5^27 < 2^63). One
 * multiply and one shift give the integer part and the exact
 * fraction, which round half to even to 17 digits; an 18-digit
 * integer part (k one low) is divided by 10 once, and a carry to
 * 10^17 bumps the exponent, since printf picks %g's notation from
 * the exponent after rounding. %g's fixed-or-exponent layout then
 * strips trailing zeros. Everything else (+-0, subnormals, smaller or
 * larger magnitudes, inf, nan) goes to std::to_chars(general, 17),
 * which the standard defines as that printf conversion.
 */
char *writeNum17(char *p, double v);

/** Append @p v to @p out as writeNum17 writes it. */
void appendNum17(std::string &out, double v);

/** @p v as writeNum17 writes it, for ostream-based emitters. */
std::string num17(double v);

/**
 * Quote a CSV field per RFC 4180: fields containing a comma, a
 * double quote, or a line break are wrapped in double quotes, with
 * embedded quotes doubled. Layer names and stat keys come from
 * user-definable network descriptions, so emitting them raw would
 * corrupt the table (a comma in a layer name shifts every column
 * after it).
 */
std::string csvField(const std::string &s);

/**
 * Escape a string for the inside of a JSON string literal. A double
 * quote or backslash is backslash-escaped, newline and tab use the
 * JSON short escapes, and every other byte below 0x20 becomes a
 * \u00xx escape. Every emitter uses this one escaper, so a control
 * character in a name or an environment value never makes an export
 * invalid JSON; the DSE journal's reader depends on these exact
 * bytes.
 */
std::string jsonEscape(const std::string &s);

/**
 * "NAME": value members for every knownEnvVars() name (null when the
 * variable is unset), comma separated, without braces: the env
 * object of every provenance block.
 */
std::string envJsonMembers();

/**
 * The standard run-provenance manifest body: enough to reproduce the
 * run -- one caller-supplied identity member (a config key hash or a
 * run signature; pre-rendered, e.g. "\"config_key_hash\": \"0x12\""),
 * the execution knobs (threads, cache), the build, and the INCA_*
 * environment the process saw. Returns the members between the
 * braces, each line prefixed with @p indent and terminated with a
 * newline (no trailing comma), so the caller writes:
 *
 *   os << "  \"provenance\": {\n"
 *      << provenanceJson(lead, "    ") << "  }";
 */
std::string provenanceJson(const std::string &leadMember,
                           const std::string &indent);

} // namespace inca

#endif // INCA_COMMON_EXPORT_UTIL_HH
