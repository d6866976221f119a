#include "common/export_util.hh"

#include <charconv>
#include <cstdlib>
#include <sstream>

#include "common/cache.hh"
#include "common/env.hh"
#include "common/thread_pool.hh"

namespace inca {

void
appendNum17(std::string &out, double v)
{
    // Longest output: "-" + 17 digits + "." + "e-308" = 24 bytes.
    char buf[32];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof(buf), v, std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

std::string
num17(double v)
{
    std::string out;
    appendNum17(out, v);
    return out;
}

std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\r\n") == std::string::npos)
        return s;
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (char c : s) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    static const char hex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        const unsigned char u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (c == '\n') {
            out += "\\n";
        } else if (c == '\t') {
            out += "\\t";
        } else if (u < 0x20) {
            out += "\\u00";
            out.push_back(hex[u >> 4]);
            out.push_back(hex[u & 0xf]);
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::string
envJsonMembers()
{
    std::string out;
    for (const std::string &name : knownEnvVars()) {
        if (!out.empty())
            out += ", ";
        const char *v = std::getenv(name.c_str());
        out += "\"" + name + "\": " +
               (v ? "\"" + jsonEscape(v) + "\"" : std::string("null"));
    }
    return out;
}

std::string
provenanceJson(const std::string &leadMember,
               const std::string &indent)
{
    std::ostringstream os;
    os << indent << leadMember << ",\n";
    os << indent << "\"threads\": "
       << ThreadPool::globalThreadCount() << ",\n";
    os << indent << "\"cache\": "
       << (cacheEnabled() ? "true" : "false") << ",\n";
#ifdef INCA_BUILD_TYPE
    os << indent << "\"build_type\": \"" << jsonEscape(INCA_BUILD_TYPE)
       << "\",\n";
#else
    os << indent << "\"build_type\": \"unknown\",\n";
#endif
    os << indent << "\"env\": {" << envJsonMembers() << "}\n";
    return os.str();
}

} // namespace inca
