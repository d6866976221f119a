#include "common/config.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace inca {

namespace {

std::string
trim(const std::string &s)
{
    size_t begin = 0, end = s.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(
                              s[begin]))) {
        ++begin;
    }
    while (end > begin && std::isspace(static_cast<unsigned char>(
                              s[end - 1]))) {
        --end;
    }
    return s.substr(begin, end - begin);
}

} // namespace

Config
Config::fromString(const std::string &text)
{
    Config cfg;
    std::istringstream in(text);
    std::string line;
    std::string section;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        // Strip comments (# or ;).
        const size_t comment = line.find_first_of("#;");
        if (comment != std::string::npos)
            line = line.substr(0, comment);
        line = trim(line);
        if (line.empty())
            continue;
        if (line.front() == '[') {
            if (line.back() != ']') {
                fatal("config line %d: unterminated section '%s'",
                      lineNo, line.c_str());
            }
            section = trim(line.substr(1, line.size() - 2));
            continue;
        }
        const size_t eq = line.find('=');
        if (eq == std::string::npos) {
            fatal("config line %d: expected 'key = value', got '%s'",
                  lineNo, line.c_str());
        }
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            fatal("config line %d: empty key", lineNo);
        cfg.set(section.empty() ? key : section + "." + key, value);
    }
    return cfg;
}

Config
Config::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file '%s'", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    return fromString(buf.str());
}

bool
Config::has(const std::string &key) const
{
    return values_.find(key) != values_.end();
}

std::string
Config::getString(const std::string &key,
                  const std::string &fallback) const
{
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t fallback) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    // Decimal, or hex behind 0x: never strtoll's base 0, which reads
    // a leading 0 as octal ("010" would be 8).
    const char *text = it->second.c_str();
    const char *digits = text + (*text == '-' || *text == '+');
    const int base =
        digits[0] == '0' && (digits[1] == 'x' || digits[1] == 'X') ? 16
                                                                   : 10;
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, base);
    if (end == text || *end != '\0') {
        fatal("config key '%s': '%s' is not an integer", key.c_str(),
              text);
    }
    if (errno == ERANGE) {
        fatal("config key '%s': '%s' does not fit a 64-bit integer",
              key.c_str(), text);
    }
    return v;
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &[key, value] : values_)
        out.push_back(key);
    return out;
}

} // namespace inca
