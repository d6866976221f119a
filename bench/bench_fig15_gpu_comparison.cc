/**
 * @file
 * Figure 15: INCA versus a Titan RTX GPU in training -- (a)
 * normalized energy efficiency and (b) iso-area throughput
 * (throughput per mm^2). The paper finds INCA ahead on both, with the
 * largest margins on energy and on the light models.
 */

#include "bench_common.hh"

#include "arch/area.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "gpu/gpu_model.hh"
#include "inca/engine.hh"
#include "nn/model_zoo.hh"

namespace {

using namespace inca;

void
report()
{
    bench::banner("Figure 15: INCA vs. GPU (Titan RTX), training, "
                  "batch 64");
    core::IncaEngine inca(arch::paperInca());
    gpu::GpuModel titan;
    const double incaAreaMm2 =
        arch::incaArea(arch::paperInca()).total() * 1e6;
    const double gpuAreaMm2 = titan.spec().dieArea * 1e6;

    TextTable t({"network", "INCA E/img", "GPU E/img",
                 "energy-eff gain", "INCA img/s/mm^2",
                 "GPU img/s/mm^2", "iso-area gain"});
    for (const auto &net : nn::evaluationSuite()) {
        const auto i = inca.training(net, 64);
        const auto g = titan.training(net, 64);
        const double gainE =
            (g.energy / 64.0) / i.energyPerImage();
        const double iThr = i.throughput() / incaAreaMm2;
        const double gThr = g.throughput(64) / gpuAreaMm2;
        t.addRow({net.name, formatSi(i.energyPerImage(), "J"),
                  formatSi(g.energy / 64.0, "J"),
                  TextTable::ratio(gainE), TextTable::num(iThr, 2),
                  TextTable::num(gThr, 2),
                  TextTable::ratio(iThr / gThr)});
    }
    t.print();
    std::printf("shape check (paper): INCA outperforms the GPU in "
                "both metrics, \"particularly conducive to energy "
                "saving across network models and to throughput in "
                "light models\". Areas: INCA %.1f mm^2 vs GPU %.0f "
                "mm^2.\n",
                incaAreaMm2, gpuAreaMm2);
}

} // namespace

INCA_BENCH_MAIN(report)
