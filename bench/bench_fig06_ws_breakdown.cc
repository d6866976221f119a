/**
 * @file
 * Figure 6: energy breakdown of the WS baseline executing VGG16 and
 * ResNet18 with CIFAR10-shaped inputs, plus the WS-vs-INCA
 * memory-system contrast the figure motivates (Limitation 1).
 *
 * Note on fidelity: the paper's NeuroSim-based accounting attributes
 * the largest share to DRAM + buffers; our physically re-derived
 * model attributes relatively more to the ADCs and leakage. The
 * robust reproduction target is the *contrast*: the WS chip's
 * memory-system energy is many times INCA's for the same workload
 * (see EXPERIMENTS.md).
 */

#include "bench_common.hh"

#include "baseline/engine.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "inca/engine.hh"
#include "nn/model_zoo.hh"
#include "sim/report.hh"

namespace {

using namespace inca;

void
report()
{
    bench::banner("Figure 6: WS energy breakdown (CIFAR10 shapes, "
                  "batch 64)");
    baseline::BaselineEngine base(arch::paperBaseline());
    core::IncaEngine inca(arch::paperInca());
    const auto input = nn::cifarInput();

    for (const auto &net :
         {nn::vgg16(input), nn::resnet18(input)}) {
        const auto run = base.inference(net, 64);
        const auto pct = sim::energyBreakdownPct(run);
        TextTable t({"component", "energy", "share"});
        const auto abs = sim::energyBreakdown(run);
        for (const char *key : {"dram", "buffer", "adc", "array",
                                "dac", "digital", "static"}) {
            t.addRow({key, formatSi(abs.at(key), "J"),
                      TextTable::num(pct.at(key), 1) + " %"});
        }
        std::printf("\nWS baseline, %s:\n", net.name.c_str());
        t.print();

        const auto isRun = inca.inference(net, 64);
        const auto isAbs = sim::energyBreakdown(isRun);
        const double wsMem = abs.at("dram") + abs.at("buffer");
        const double isMem = isAbs.at("dram") + isAbs.at("buffer");
        std::printf("memory-system (DRAM+buffer) energy: WS %s vs "
                    "INCA %s -> %.1fx contrast\n",
                    formatSi(wsMem, "J").c_str(),
                    formatSi(isMem, "J").c_str(), wsMem / isMem);
    }
}

} // namespace

INCA_BENCH_MAIN(report)
