/**
 * @file
 * Shared export plumbing: the number writer (printf "%.17g" bytes,
 * exact double round-trip), the RFC-4180 CSV field quoter, the JSON
 * string escaper, and the standard run-provenance manifest. These
 * started life inside sim/export.cc; they live in common so every
 * emitter (per-layer run export, DSE frontier and journal, campaign,
 * serving and bottleneck reports, IR disassembly) writes the same
 * bytes for the same content instead of each carrying a private copy
 * that drifts.
 */

#ifndef INCA_COMMON_EXPORT_UTIL_HH
#define INCA_COMMON_EXPORT_UTIL_HH

#include <string>

namespace inca {

/**
 * Append @p v to @p out exactly as C-locale printf "%.17g" prints it:
 * 17 significant digits, so every double round-trips, including
 * "inf", "-inf", "nan" and "-nan". Built on std::to_chars, which
 * the standard defines as that printf conversion; it skips the
 * locale and format-string parsing, so the per-request CSVs write
 * their ~1M numbers without a temporary per field.
 */
void appendNum17(std::string &out, double v);

/** @p v as appendNum17 writes it, for ostream-based emitters. */
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
