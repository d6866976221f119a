#include "common/export_util.hh"

#include <charconv>
#include <cstdlib>
#include <sstream>

#include "common/cache.hh"
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
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

std::string
envJson(const char *name)
{
    const char *v = std::getenv(name);
    if (v == nullptr)
        return "null";
    return "\"" + jsonEscape(v) + "\"";
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
    os << indent << "\"env\": {";
    bool firstEnv = true;
    for (const char *name : {"INCA_TRACE", "INCA_METRICS",
                             "INCA_NUM_THREADS", "INCA_CACHE"}) {
        if (!firstEnv)
            os << ", ";
        firstEnv = false;
        os << "\"" << name << "\": " << envJson(name);
    }
    os << "}\n";
    return os.str();
}

} // namespace inca
