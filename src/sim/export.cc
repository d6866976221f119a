#include "sim/export.hh"

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/export_util.hh"
#include "common/logging.hh"

namespace inca {
namespace sim {

namespace {

std::string
num(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

/** Every stat some layer of @p run holds, in name order. */
std::vector<Stat>
allStats(const arch::RunCost &run)
{
    std::array<bool, kStatCount> held{};
    for (const auto &layer : run.layers)
        layer.stats.forEach(
            [&](Stat s, double) { held[std::size_t(s)] = true; });
    std::vector<Stat> stats;
    for (int i = 0; i < kStatCount; ++i)
        if (held[std::size_t(i)])
            stats.push_back(Stat(i));
    return stats;
}

} // namespace

std::string
toCsv(const arch::RunCost &run)
{
    const std::vector<Stat> stats = allStats(run);
    std::ostringstream os;
    os << "layer,kind,latency_s,energy_J";
    for (const Stat stat : stats)
        os << "," << statName(stat);
    os << "\n";
    for (const auto &layer : run.layers) {
        os << csvField(layer.name) << ","
           << nn::layerKindName(layer.kind) << ","
           << num(layer.latency) << "," << num(layer.energy());
        for (const Stat stat : stats)
            os << "," << num(layer.stats.get(stat));
        os << "\n";
    }
    return os.str();
}

std::string
toJson(const arch::RunCost &run, const std::string &extras)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"network\": \"" << jsonEscape(run.network) << "\",\n";
    os << "  \"phase\": \""
       << (run.phase == arch::Phase::Training ? "training"
                                              : "inference")
       << "\",\n";
    os << "  \"batch_size\": " << run.batchSize << ",\n";
    if (!extras.empty())
        os << "  " << extras << ",\n";
    os << "  \"latency_s\": " << num(run.latency) << ",\n";
    os << "  \"static_energy_J\": " << num(run.staticEnergy) << ",\n";
    os << "  \"total_energy_J\": " << num(run.energy()) << ",\n";
    // Run-provenance manifest: enough to reproduce the run -- the
    // design point (config key hash from arch::appendKey), the
    // execution knobs (threads, cache), the build, and the INCA_*
    // environment the process saw.
    {
        std::ostringstream lead;
        lead << "\"config_key_hash\": \"0x" << std::hex
             << run.configKeyHash << std::dec << "\"";
        os << "  \"provenance\": {\n"
           << provenanceJson(lead.str(), "    ") << "  },\n";
    }
    os << "  \"layers\": [\n";
    for (size_t i = 0; i < run.layers.size(); ++i) {
        const auto &layer = run.layers[i];
        os << "    {\"name\": \"" << jsonEscape(layer.name)
           << "\", \"kind\": \"" << nn::layerKindName(layer.kind)
           << "\", \"latency_s\": " << num(layer.latency)
           << ", \"energy_J\": " << num(layer.energy())
           << ", \"stats\": {";
        bool first = true;
        layer.stats.forEach([&](Stat s, double value) {
            if (!first)
                os << ", ";
            first = false;
            os << "\"" << statName(s) << "\": " << num(value);
        });
        os << "}}" << (i + 1 < run.layers.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write '%s'", path.c_str());
    out << content;
}

} // namespace sim
} // namespace inca
