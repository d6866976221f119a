/**
 * @file
 * Figure 13a: ADC energy of the baseline versus INCA on VGG16 -- the
 * paper finds INCA's fine-grained 4-bit converters spend ~5x less in
 * total (one 8-bit conversion costs as much as four 4-bit ones).
 *
 * Figure 13b: INCA's overall energy breakdown, the apples-to-apples
 * counterpart of Fig. 6 -- the DRAM + buffer segment shrinks because
 * IS eliminates the per-window buffer round trips.
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
    core::IncaEngine inca(arch::paperInca());
    baseline::BaselineEngine base(arch::paperBaseline());
    const auto net = nn::vgg16();

    bench::banner("Figure 13a: ADC energy, VGG16 (batch 64)");
    const auto wsRun = base.inference(net, 64);
    const auto isRun = inca.inference(net, 64);
    const double wsAdc = wsRun.sum("energy.adc");
    const double isAdc = isRun.sum("energy.adc");
    TextTable t({"design", "ADC config", "conversions", "ADC energy"});
    t.addRow({"baseline", "8-bit, 128x128 arrays",
              TextTable::count(wsRun.sum("count.adc")),
              formatSi(wsAdc, "J")});
    t.addRow({"INCA", "4-bit, 16x16x64 stacks",
              TextTable::count(isRun.sum("count.adc")),
              formatSi(isAdc, "J")});
    t.print();
    std::printf("reduction: %.1fx (paper: ~5x)\n", wsAdc / isAdc);

    bench::banner("Figure 13b: INCA energy breakdown, VGG16 "
                  "(batch 64)");
    const auto pct = sim::energyBreakdownPct(isRun);
    const auto abs = sim::energyBreakdown(isRun);
    TextTable tb({"component", "energy", "share"});
    for (const char *key : {"dram", "buffer", "adc", "array", "dac",
                            "digital", "static"}) {
        tb.addRow({key, formatSi(abs.at(key), "J"),
                   TextTable::num(pct.at(key), 1) + " %"});
    }
    tb.print();
    const auto wsAbs = sim::energyBreakdown(wsRun);
    std::printf("DRAM+buffer: INCA %s vs WS %s -- the Fig. 6 "
                "memory-system segment shrinks by %.1fx.\n",
                formatSi(abs.at("dram") + abs.at("buffer"), "J").c_str(),
                formatSi(wsAbs.at("dram") + wsAbs.at("buffer"),
                         "J").c_str(),
                (wsAbs.at("dram") + wsAbs.at("buffer")) /
                    (abs.at("dram") + abs.at("buffer")));
}

} // namespace

INCA_BENCH_MAIN(report)
