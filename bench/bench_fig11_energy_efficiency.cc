/**
 * @file
 * Figure 11: energy-efficiency gain of INCA over the WS baseline for
 * (a) inference and (b) training, batch 64, ImageNet shapes. The
 * paper reports 8.0-20.6x in inference and 103-260x in training for
 * the heavy networks, and one to two further orders of magnitude for
 * the light models.
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
    bench::banner("Figure 11: energy efficiency, INCA vs. WS "
                  "baseline (batch 64)");
    core::IncaEngine inca(arch::paperInca());
    baseline::BaselineEngine base(arch::paperBaseline());

    const double paperInf[] = {20.6, 15.9, 8.7, 8.0, 80.0, 83.0};
    const double paperTrn[] = {260, 202, 103, 152, 3873, 2790};

    TextTable t({"network", "INCA E/batch", "WS E/batch",
                 "inference gain", "(paper)", "training gain",
                 "(paper)"});
    const auto suite = nn::evaluationSuite();
    for (size_t i = 0; i < suite.size(); ++i) {
        const auto inf = sim::compare(inca, base, suite[i], 64,
                                      arch::Phase::Inference);
        const auto trn = sim::compare(inca, base, suite[i], 64,
                                      arch::Phase::Training);
        t.addRow({suite[i].name,
                  formatSi(inf.inca.energy(), "J"),
                  formatSi(inf.baseline.energy(), "J"),
                  TextTable::ratio(inf.energyEfficiencyGain()),
                  TextTable::ratio(paperInf[i]),
                  TextTable::ratio(trn.energyEfficiencyGain()),
                  TextTable::ratio(paperTrn[i])});
    }
    t.print();

    std::vector<sim::Bar> infBars, trnBars;
    for (const auto &net : suite) {
        infBars.push_back(
            {net.name, sim::compare(inca, base, net, 64,
                                    arch::Phase::Inference)
                           .energyEfficiencyGain()});
        trnBars.push_back(
            {net.name, sim::compare(inca, base, net, 64,
                                    arch::Phase::Training)
                           .energyEfficiencyGain()});
    }
    for (const auto &bar : infBars)
        bench::JsonReport::instance().addPoint(
            "inference_energy_gain", bar.label, bar.value);
    for (const auto &bar : trnBars)
        bench::JsonReport::instance().addPoint(
            "training_energy_gain", bar.label, bar.value);
    sim::BarOptions bopt;
    bopt.logScale = true;
    bopt.unit = "x";
    std::printf("\n(a) inference energy-efficiency gain:\n%s",
                sim::barChart(infBars, bopt).c_str());
    std::printf("\n(b) training energy-efficiency gain:\n%s",
                sim::barChart(trnBars, bopt).c_str());
    std::printf("shape check: INCA wins everywhere; training gains "
                "exceed inference gains (3D batch parallelism); light "
                "models gain another order of magnitude (WS "
                "utilization collapse).\n");
}

} // namespace

INCA_BENCH_MAIN(report)
