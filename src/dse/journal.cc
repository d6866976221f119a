#include "dse/journal.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/export_util.hh"
#include "common/logging.hh"

namespace inca {
namespace dse {

namespace {

std::string
fmtDouble(double v)
{
    // JSON has no inf/nan literals; clamp to huge sentinels (the
    // explorer never produces them, but a journal must stay lintable).
    if (!std::isfinite(v))
        v = v > 0 ? 1e308 : -1e308;
    // %.17g round-trips IEEE-754 doubles exactly; resume depends on
    // reading back bit-identical values.
    return num17(v);
}

/**
 * Locate "key": in @p line and return the raw value token --
 * respecting string quoting and one level of array nesting, which is
 * all the fixed writer format uses.
 */
bool
rawValue(const std::string &line, const char *key, std::string &out)
{
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return false;
    std::size_t i = at + needle.size();
    if (i >= line.size())
        return false;
    if (line[i] == '"') {
        std::size_t j = i + 1;
        while (j < line.size()) {
            if (line[j] == '\\')
                j += 2;
            else if (line[j] == '"')
                break;
            else
                ++j;
        }
        if (j >= line.size())
            return false;
        out = line.substr(i, j - i + 1);
        return true;
    }
    if (line[i] == '[') {
        const std::size_t j = line.find(']', i);
        if (j == std::string::npos)
            return false;
        out = line.substr(i, j - i + 1);
        return true;
    }
    const std::size_t j = line.find_first_of(",}", i);
    if (j == std::string::npos)
        return false;
    out = line.substr(i, j - i);
    return true;
}

bool
getString(const std::string &line, const char *key, std::string &out)
{
    std::string raw;
    if (!rawValue(line, key, raw) || raw.size() < 2 ||
        raw.front() != '"' || raw.back() != '"')
        return false;
    // Un-escape (the writer only emits the escapes below).
    out.clear();
    for (std::size_t i = 1; i + 1 < raw.size(); ++i) {
        if (raw[i] == '\\' && i + 2 < raw.size()) {
            ++i;
            switch (raw[i]) {
            case 'n':
                out += '\n';
                break;
            case 't':
                out += '\t';
                break;
            default:
                out += raw[i];
            }
        } else {
            out += raw[i];
        }
    }
    return true;
}

bool
getDouble(const std::string &line, const char *key, double &out)
{
    std::string raw;
    if (!rawValue(line, key, raw) || raw.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(raw.c_str(), &end);
    return end != raw.c_str() && *end == '\0';
}

bool
getU64(const std::string &line, const char *key, std::uint64_t &out)
{
    std::string raw;
    if (!rawValue(line, key, raw) || raw.empty())
        return false;
    char *end = nullptr;
    out = std::strtoull(raw.c_str(), &end, 10);
    return end != raw.c_str() && *end == '\0';
}

bool
getBool(const std::string &line, const char *key, bool &out)
{
    std::string raw;
    if (!rawValue(line, key, raw))
        return false;
    if (raw == "true")
        out = true;
    else if (raw == "false")
        out = false;
    else
        return false;
    return true;
}

bool
getDoubleArray(const std::string &line, const char *key,
               std::vector<double> &out)
{
    std::string raw;
    if (!rawValue(line, key, raw) || raw.size() < 2 ||
        raw.front() != '[' || raw.back() != ']')
        return false;
    out.clear();
    const char *p = raw.c_str() + 1;
    while (*p != '\0' && *p != ']') {
        char *end = nullptr;
        const double v = std::strtod(p, &end);
        if (end == p)
            return false;
        out.push_back(v);
        p = end;
        if (*p == ',')
            ++p;
    }
    return true;
}

bool
parseEvalLine(const std::string &line, Evaluation &e)
{
    std::string type;
    if (!getString(line, "type", type) || type != "eval")
        return false;
    if (!getU64(line, "index", e.candidate.index))
        return false;
    if (!getBool(line, "feasible", e.feasible) ||
        !getBool(line, "scored", e.scored))
        return false;
    if (!getString(line, "rejected_by", e.rejectedBy))
        return false;
    if (!getU64(line, "config_key_hash", e.configKeyHash))
        return false;
    if (!getDouble(line, "area_m2", e.areaM2) ||
        !getDouble(line, "idle_w", e.idlePowerW) ||
        !getDouble(line, "utilization", e.utilization) ||
        !getDouble(line, "accuracy", e.accuracy) ||
        !getDouble(line, "energy_j", e.energyJ) ||
        !getDouble(line, "latency_s", e.latencyS))
        return false;
    // Written by every v2 journal; absent from pre-resilience ones
    // (which a signature mismatch rejects anyway), so default it
    // rather than failing the whole line.
    if (!getDouble(line, "resilience", e.resilience))
        e.resilience = 0.0;
    // Same forward-compatibility treatment: journals written before
    // the event backend carry no timed latency.
    if (!getDouble(line, "latency_timed_s", e.timedLatencyS))
        e.timedLatencyS = 0.0;
    // ... and journals written before the analysis layer carry no
    // bottleneck attribution.
    if (!getString(line, "bottleneck_unit", e.bottleneckUnit))
        e.bottleneckUnit.clear();
    if (!getDouble(line, "critical_share", e.criticalShare))
        e.criticalShare = 0.0;
    // ... and pre-serving journals carry no serving scalars.
    if (!getDouble(line, "p99_latency_s", e.p99LatencyS))
        e.p99LatencyS = 0.0;
    if (!getDouble(line, "goodput_rps", e.goodputRps))
        e.goodputRps = 0.0;
    if (!getDouble(line, "energy_per_request_j",
                   e.energyPerRequestJ))
        e.energyPerRequestJ = 0.0;
    // ... and pre-chaos journals carry no availability/shed scalars.
    if (!getDouble(line, "availability", e.availability))
        e.availability = 1.0;
    if (!getDouble(line, "shed_fraction", e.shedFraction))
        e.shedFraction = 0.0;
    if (!getDoubleArray(line, "objectives", e.objectives))
        return false;
    return true;
}

} // namespace

std::string
JournalHeader::toJsonLine() const
{
    std::string out = "{\"type\":\"header\",\"version\":1";
    out += ",\"space_size\":" + std::to_string(spaceSize);
    out += ",\"signature\":\"" + jsonEscape(signature) + "\"}";
    return out;
}

std::string
evalToJsonLine(const Evaluation &e)
{
    std::string out = "{\"type\":\"eval\"";
    out += ",\"index\":" + std::to_string(e.candidate.index);
    out += ",\"feasible\":";
    out += e.feasible ? "true" : "false";
    out += ",\"scored\":";
    out += e.scored ? "true" : "false";
    out += ",\"rejected_by\":\"" + jsonEscape(e.rejectedBy) + "\"";
    out += ",\"config_key_hash\":" + std::to_string(e.configKeyHash);
    out += ",\"area_m2\":" + fmtDouble(e.areaM2);
    out += ",\"idle_w\":" + fmtDouble(e.idlePowerW);
    out += ",\"utilization\":" + fmtDouble(e.utilization);
    out += ",\"accuracy\":" + fmtDouble(e.accuracy);
    out += ",\"resilience\":" + fmtDouble(e.resilience);
    out += ",\"energy_j\":" + fmtDouble(e.energyJ);
    out += ",\"latency_s\":" + fmtDouble(e.latencyS);
    out += ",\"latency_timed_s\":" + fmtDouble(e.timedLatencyS);
    out += ",\"bottleneck_unit\":\"" + jsonEscape(e.bottleneckUnit) +
           "\"";
    out += ",\"critical_share\":" + fmtDouble(e.criticalShare);
    out += ",\"p99_latency_s\":" + fmtDouble(e.p99LatencyS);
    out += ",\"goodput_rps\":" + fmtDouble(e.goodputRps);
    out += ",\"energy_per_request_j\":" +
           fmtDouble(e.energyPerRequestJ);
    out += ",\"availability\":" + fmtDouble(e.availability);
    out += ",\"shed_fraction\":" + fmtDouble(e.shedFraction);
    out += ",\"objectives\":[";
    for (std::size_t i = 0; i < e.objectives.size(); ++i) {
        if (i > 0)
            out += ',';
        out += fmtDouble(e.objectives[i]);
    }
    out += "]}";
    return out;
}

void
JournalWriter::open(const std::string &path,
                    const JournalHeader &header, bool append)
{
    close();
    file_ = std::fopen(path.c_str(), append ? "ab" : "wb");
    if (!file_)
        fatal("cannot open journal '%s': %s", path.c_str(),
              std::strerror(errno));
    if (!append) {
        const std::string line = header.toJsonLine();
        std::fwrite(line.data(), 1, line.size(), file_);
        std::fputc('\n', file_);
        std::fflush(file_);
    }
}

void
JournalWriter::append(const Evaluation &e)
{
    inca_assert(file_ != nullptr, "journal not open");
    const std::string line = evalToJsonLine(e);
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
    // One flush per line bounds a kill's loss to the torn tail.
    std::fflush(file_);
}

void
JournalWriter::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

bool
readJournal(const std::string &path, JournalContents &out)
{
    std::ifstream in(path.c_str());
    if (!in.is_open())
        return false;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            lines.push_back(line);
    }
    if (lines.empty())
        fatal("journal '%s' is empty", path.c_str());

    std::string type;
    if (!getString(lines[0], "type", type) || type != "header" ||
        !getString(lines[0], "signature", out.header.signature) ||
        !getU64(lines[0], "space_size", out.header.spaceSize))
        fatal("journal '%s' has no parsable header", path.c_str());

    for (std::size_t i = 1; i < lines.size(); ++i) {
        Evaluation e;
        if (!parseEvalLine(lines[i], e)) {
            if (i + 1 == lines.size()) {
                // Torn final line from a mid-write kill: drop it.
                out.truncatedTail = true;
                break;
            }
            fatal("journal '%s': malformed line %zu", path.c_str(),
                  i + 1);
        }
        out.evals[e.candidate.index] = e;
    }
    return true;
}

} // namespace dse
} // namespace inca
