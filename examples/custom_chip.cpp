/**
 * @file
 * Configure a custom INCA / baseline design point from an INI file
 * (or the built-in demo config), simulate it, and export per-layer
 * results for plotting.
 *
 *   $ ./build/examples/custom_chip [config.ini] [network] [batch]
 *
 * Config keys (all optional; defaults are Table II):
 *
 *     [inca]
 *     subarray_size = 32      ; plane side
 *     stacked_planes = 32     ; batch slots per 3D stack
 *     adc_bits = 5
 *     num_tiles = 84
 *     buffer_kib = 128
 *     [baseline]
 *     subarray_size = 256
 *     adc_bits = 8
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "baseline/engine.hh"
#include "common/config.hh"
#include "common/env.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "examples/cli.hh"
#include "inca/engine.hh"
#include "nn/model_zoo.hh"
#include "sim/export.hh"
#include "sim/report.hh"

namespace {

const char *kDemoConfig = R"(# demo: a half-size INCA next to a
# double-resolution baseline
[inca]
subarray_size = 32
stacked_planes = 32
adc_bits = 5
[baseline]
adc_bits = 8
)";

} // namespace

int
main(int argc, char **argv)
{
    using namespace inca;

    checkEnvironment();

    const Config chipCfg = argc > 1
                               ? Config::fromFile(argv[1])
                               : Config::fromString(kDemoConfig);
    const std::string netName = argc > 2 ? argv[2] : "resnet18";
    const int batch =
        argc > 3 ? cli::parseIntIn("[batch]", argv[3], 1) : 64;

    std::printf("configuration (%s):\n",
                argc > 1 ? argv[1] : "built-in demo");
    for (const auto &key : chipCfg.keys())
        std::printf("  %s = %s\n", key.c_str(),
                    chipCfg.getString(key).c_str());

    const arch::IncaConfig incaCfg = arch::incaFromConfig(chipCfg);
    const arch::BaselineConfig baseCfg =
        arch::baselineFromConfig(chipCfg);
    core::IncaEngine inca(incaCfg);
    baseline::BaselineEngine base(baseCfg);
    const auto net = nn::byName(netName);

    TextTable t({"phase", "INCA energy", "INCA latency",
                 "energy gain", "speedup"});
    for (const auto phase :
         {arch::Phase::Inference, arch::Phase::Training}) {
        const auto c = sim::compare(inca, base, net, batch, phase);
        t.addRow({phase == arch::Phase::Training ? "training"
                                                 : "inference",
                  formatSi(c.inca.energy(), "J"),
                  formatSi(c.inca.latency, "s"),
                  TextTable::ratio(c.energyEfficiencyGain()),
                  TextTable::ratio(c.speedup())});
    }
    std::printf("\n%s on the configured chips, batch %d:\n",
                net.name.c_str(), batch);
    t.print();

    // Export the INCA run for external plotting.
    const auto run = inca.inference(net, batch);
    const std::string csvPath = "/tmp/inca_" + netName + ".csv";
    const std::string jsonPath = "/tmp/inca_" + netName + ".json";
    sim::writeFile(csvPath, sim::toCsv(run));
    sim::writeFile(jsonPath, sim::toJson(run));
    std::printf("\nper-layer results exported to %s and %s\n",
                csvPath.c_str(), jsonPath.c_str());
    return 0;
}
