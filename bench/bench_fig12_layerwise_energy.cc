/**
 * @file
 * Figure 12: layerwise DRAM + buffer energy of the WS baseline and
 * INCA executing VGG16 (ImageNet, batch 64). The paper's shape: the
 * baseline is dominated by the window-heavy early layers, INCA's
 * profile is nearly flat (kernels of similar size are fetched and
 * reused per layer), and in a few late layers INCA can even consume
 * more -- a crossover with negligible impact on the total.
 */

#include "bench_common.hh"

#include <cmath>

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
    bench::banner("Figure 12: layerwise DRAM+buffer energy, VGG16 "
                  "(batch 64)");
    core::IncaEngine inca(arch::paperInca());
    baseline::BaselineEngine base(arch::paperBaseline());
    const auto net = nn::vgg16();

    const auto ws = sim::layerwiseMemoryEnergy(base.inference(net, 64));
    const auto is = sim::layerwiseMemoryEnergy(inca.inference(net, 64));

    TextTable t({"layer", "WS", "INCA", "log10(WS/INCA)"});
    double wsTotal = 0.0, isTotal = 0.0;
    for (size_t i = 0; i < ws.size(); ++i) {
        wsTotal += ws[i].second;
        isTotal += is[i].second;
        const double ratio =
            is[i].second > 0.0 ? ws[i].second / is[i].second : 0.0;
        t.addRow({ws[i].first, formatSi(ws[i].second, "J"),
                  formatSi(is[i].second, "J"),
                  ratio > 0.0 ? TextTable::num(std::log10(ratio), 2)
                              : "-"});
    }
    t.addRule();
    t.addRow({"total", formatSi(wsTotal, "J"), formatSi(isTotal, "J"),
              TextTable::num(std::log10(wsTotal / isTotal), 2)});
    t.print();
    std::printf("shape check: WS is front-loaded (early layers carry "
                "most window traffic); INCA stays flat and can exceed "
                "WS only in late small layers.\n");
}

} // namespace

INCA_BENCH_MAIN(report)
