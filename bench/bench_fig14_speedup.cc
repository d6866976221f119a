/**
 * @file
 * Figure 14: speedup of INCA over the WS baseline for (a) inference
 * and (b) training, batch 64. The paper reports 1.9-4.8x in inference
 * and 6.8-18.6x in training for the heavy networks; the light models
 * reach two to three orders of magnitude in training thanks to the
 * plane-per-image batch parallelism.
 */

#include "bench_common.hh"

#include "common/table.hh"
#include "common/units.hh"
#include "nn/model_zoo.hh"
#include "sim/plot.hh"
#include "sim/report.hh"

namespace {

using namespace inca;

void
report()
{
    bench::banner("Figure 14: speedup, INCA vs. WS baseline "
                  "(batch 64)");
    core::IncaEngine inca(arch::paperInca());
    baseline::BaselineEngine base(arch::paperBaseline());

    const double paperInf[] = {4.6, 3.7, 1.9, 4.8, 201.0, 85.0};
    const double paperTrn[] = {18.6, 14.2, 7.2, 6.8, 1187.0, 363.0};

    TextTable t({"network", "INCA t/batch", "WS t/batch",
                 "inference speedup", "(paper)", "training speedup",
                 "(paper)"});
    const auto suite = nn::evaluationSuite();
    for (size_t i = 0; i < suite.size(); ++i) {
        const auto inf = sim::compare(inca, base, suite[i], 64,
                                      arch::Phase::Inference);
        const auto trn = sim::compare(inca, base, suite[i], 64,
                                      arch::Phase::Training);
        t.addRow({suite[i].name, formatSi(inf.inca.latency, "s"),
                  formatSi(inf.baseline.latency, "s"),
                  TextTable::ratio(inf.speedup()),
                  TextTable::ratio(paperInf[i]),
                  TextTable::ratio(trn.speedup()),
                  TextTable::ratio(paperTrn[i])});
    }
    t.print();

    std::vector<sim::Bar> infBars, trnBars;
    for (const auto &net : suite) {
        infBars.push_back(
            {net.name, sim::compare(inca, base, net, 64,
                                    arch::Phase::Inference)
                           .speedup()});
        trnBars.push_back(
            {net.name, sim::compare(inca, base, net, 64,
                                    arch::Phase::Training)
                           .speedup()});
    }
    for (const auto &bar : infBars)
        bench::JsonReport::instance().addPoint(
            "inference_speedup", bar.label, bar.value);
    for (const auto &bar : trnBars)
        bench::JsonReport::instance().addPoint(
            "training_speedup", bar.label, bar.value);
    sim::BarOptions bopt;
    bopt.logScale = true;
    bopt.unit = "x";
    std::printf("\n(a) inference speedup:\n%s",
                sim::barChart(infBars, bopt).c_str());
    std::printf("\n(b) training speedup:\n%s",
                sim::barChart(trnBars, bopt).c_str());
    std::printf("latency mechanics (Section V-B-2): INCA's RRAM "
                "writes pipeline behind the next read; the baseline's "
                "read cycle is ~2x INCA's write (%.0f vs %.0f ns).\n",
                arch::paperBaseline().readCycle() * 1e9,
                arch::paperInca().device.tWrite * 1e9);
}

} // namespace

INCA_BENCH_MAIN(report)
