#include "dse/journal.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
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

/** One number an eval line carries. */
struct NumberField
{
    const char *key;
    double Evaluation::*member;
    /** The value of a line written before the field existed; NaN
     *  when every line carries the field. */
    double fallback;
};

constexpr double kRequired = std::numeric_limits<double>::quiet_NaN();

constexpr NumberField kNumberFields[] = {
    {"area_m2", &Evaluation::areaM2, kRequired},
    {"idle_w", &Evaluation::idlePowerW, kRequired},
    {"utilization", &Evaluation::utilization, kRequired},
    {"accuracy", &Evaluation::accuracy, kRequired},
    {"energy_j", &Evaluation::energyJ, kRequired},
    {"latency_s", &Evaluation::latencyS, kRequired},
    // Written by every v2 journal; absent from pre-resilience ones
    // (which a signature mismatch rejects anyway).
    {"resilience", &Evaluation::resilience, 0.0},
    // Journals written before the event backend carry no timed
    // latency, those before the analysis layer no bottleneck share,
    // pre-serving ones no serving scalars, and pre-chaos ones no
    // availability or shed fraction.
    {"latency_timed_s", &Evaluation::timedLatencyS, 0.0},
    {"critical_share", &Evaluation::criticalShare, 0.0},
    {"p99_latency_s", &Evaluation::p99LatencyS, 0.0},
    {"goodput_rps", &Evaluation::goodputRps, 0.0},
    {"energy_per_request_j", &Evaluation::energyPerRequestJ, 0.0},
    {"availability", &Evaluation::availability, 1.0},
    {"shed_fraction", &Evaluation::shedFraction, 0.0},
};

/**
 * Parse one eval line into @p e, all but the candidate index, whose
 * raw token lands in @p index for checkBelongs. False when the line
 * does not parse.
 */
bool
parseEvalLine(const std::string &line, Evaluation &e, std::string &index)
{
    std::string type;
    if (!getString(line, "type", type) || type != "eval")
        return false;
    if (!rawValue(line, "index", index))
        return false;
    if (!getBool(line, "feasible", e.feasible) ||
        !getBool(line, "scored", e.scored))
        return false;
    if (!getString(line, "rejected_by", e.rejectedBy))
        return false;
    if (!getU64(line, "config_key_hash", e.configKeyHash))
        return false;
    for (const NumberField &f : kNumberFields) {
        if (getDouble(line, f.key, e.*f.member))
            continue;
        if (std::isnan(f.fallback))
            return false;
        e.*f.member = f.fallback;
    }
    // Journals written before the analysis layer carry no bottleneck
    // attribution.
    if (!getString(line, "bottleneck_unit", e.bottleneckUnit))
        e.bottleneckUnit.clear();
    return getDoubleArray(line, "objectives", e.objectives);
}

/**
 * The candidate @p token names in a space of @p spaceSize points:
 * false unless it is a plain decimal below spaceSize.
 */
bool
candidateIndex(const std::string &token, std::uint64_t spaceSize,
               std::uint64_t &out)
{
    if (token.empty() ||
        token.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    out = std::strtoull(token.c_str(), nullptr, 10);
    return errno != ERANGE && out < spaceSize;
}

/**
 * Fatal unless @p e, parsed from line @p lineNo of the journal at
 * @p path with the raw index @p index, can belong to @p run: the
 * writer only ever writes a candidate of the run's space, finite
 * numbers, and one value per objective on a scored line but none on
 * a line a hard constraint stopped before scoring.
 */
void
checkBelongs(const std::string &path, std::size_t lineNo,
             const std::string &index, Evaluation &e,
             const JournalHeader &run, std::size_t arity)
{
    if (!candidateIndex(index, run.spaceSize, e.candidate.index))
        fatal("journal '%s' line %zu: index %s is not a candidate of "
              "this run's %llu-point space",
              path.c_str(), lineNo, index.c_str(),
              static_cast<unsigned long long>(run.spaceSize));
    const std::size_t want = e.scored ? arity : 0;
    if (e.objectives.size() != want)
        fatal("journal '%s' line %zu: objectives holds %zu values, "
              "but a%s line of this run holds %zu",
              path.c_str(), lineNo, e.objectives.size(),
              e.scored ? " scored" : "n unscored", want);
    for (const double v : e.objectives)
        if (!std::isfinite(v))
            fatal("journal '%s' line %zu: objectives holds a "
                  "non-finite value",
                  path.c_str(), lineNo);
    for (const NumberField &f : kNumberFields)
        if (!std::isfinite(e.*f.member))
            fatal("journal '%s' line %zu: %s is not finite",
                  path.c_str(), lineNo, f.key);
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
    file_ = std::fopen(path.c_str(), append ? "a+b" : "wb");
    if (!file_)
        fatal("cannot open journal '%s': %s", path.c_str(),
              std::strerror(errno));
    if (append) {
        // A final line that lost only its newline (a short write, a
        // hand edit) still parses and is replayed; end it, or the next
        // line would be glued to it and a later resume would read one
        // evaluation where two were written.
        if (std::fseek(file_, -1, SEEK_END) == 0 &&
            std::fgetc(file_) != '\n') {
            std::fputc('\n', file_);
            std::fflush(file_);
        }
        std::fseek(file_, 0, SEEK_END);
    } else {
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
readJournal(const std::string &path, const JournalHeader &run,
            std::size_t arity, JournalContents &out)
{
    std::ifstream in(path.c_str());
    if (!in.is_open())
        return false;
    std::vector<std::string> lines;
    std::vector<std::uint64_t> starts; ///< byte offset of each line
    std::uint64_t offset = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) {
            lines.push_back(line);
            starts.push_back(offset);
        }
        offset += line.size() + 1;
    }
    if (lines.empty())
        fatal("journal '%s' is empty", path.c_str());

    std::string type;
    if (!getString(lines[0], "type", type) || type != "header" ||
        !getString(lines[0], "signature", out.header.signature) ||
        !getU64(lines[0], "space_size", out.header.spaceSize))
        fatal("journal '%s' has no parsable header", path.c_str());
    if (out.header.signature != run.signature)
        fatal("journal '%s' belongs to a different run:\n"
              "  journal: %s\n  requested: %s",
              path.c_str(), out.header.signature.c_str(),
              run.signature.c_str());

    for (std::size_t i = 1; i < lines.size(); ++i) {
        Evaluation e;
        std::string index;
        if (!parseEvalLine(lines[i], e, index)) {
            if (i + 1 == lines.size()) {
                // Torn final line from a mid-write kill: drop it.
                out.truncatedTail = true;
                out.completeBytes = starts[i];
                break;
            }
            fatal("journal '%s': malformed line %zu", path.c_str(),
                  i + 1);
        }
        checkBelongs(path, i + 1, index, e, run, arity);
        out.evals[e.candidate.index] = e;
    }
    return true;
}

} // namespace dse
} // namespace inca
