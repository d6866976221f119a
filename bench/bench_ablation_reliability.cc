/**
 * @file
 * Ablation: what fault mitigation buys and what it costs. Sweeps the
 * write-verify retry budget and the spare-line provisioning at a fixed
 * raw fault rate, printing the residual error, the accuracy proxy, and
 * the energy/latency surcharge of each point -- the
 * robustness-vs-efficiency trade the reliability engine quantifies.
 * Table VI's noise study is the zero-mitigation column of this sweep.
 */

#include "bench_common.hh"

#include <vector>

#include "common/table.hh"
#include "reliability/campaign.hh"
#include "sim/report.hh"

namespace {

using namespace inca;

std::string
sci(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2e", v);
    return buf;
}

void
sweep(const std::string &title,
      const std::vector<reliability::MitigationSpec> &specs,
      const char *knobHeader,
      const std::vector<std::string> &knobLabels)
{
    bench::banner(title);
    TextTable t({knobHeader, "IS accuracy", "WS accuracy",
                 "IS resid BER", "IS E overhead", "IS t overhead"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        reliability::CampaignOptions opt;
        opt.network = "lenet5"; // smallest zoo member: bench stays fast
        opt.trials = 8;
        opt.bers = {1e-3};
        opt.lifetimes = {};
        opt.mitigation = specs[i];
        const auto result = reliability::runCampaign(opt);
        const reliability::CampaignPoint *is = nullptr, *ws = nullptr;
        for (const auto &curve : result.curves) {
            if (curve.engine == "inca")
                is = &curve.points[0];
            else
                ws = &curve.points[0];
        }
        const double eOver =
            is->idealEnergyJ > 0.0
                ? 100.0 * (is->energyJ / is->idealEnergyJ - 1.0)
                : 0.0;
        const double tOver =
            is->idealLatencyS > 0.0
                ? 100.0 * (is->latencyS / is->idealLatencyS - 1.0)
                : 0.0;
        t.addRow({knobLabels[i],
                  TextTable::num(100.0 * is->accuracy, 2) + " %",
                  TextTable::num(100.0 * ws->accuracy, 2) + " %",
                  sci(is->residualBer),
                  TextTable::num(eOver, 3) + " %",
                  TextTable::num(tOver, 3) + " %"});
        auto &report = bench::JsonReport::instance();
        report.addPoint(title + ".is_accuracy", knobLabels[i],
                        is->accuracy);
        report.addPoint(title + ".is_residual_ber", knobLabels[i],
                        is->residualBer);
        report.addPoint(title + ".is_energy_overhead", knobLabels[i],
                        eOver);
    }
    t.print();
}

void
report()
{
    {
        sim::ScopedPhaseTimer timer("retry sweep");
        std::vector<reliability::MitigationSpec> specs;
        std::vector<std::string> labels;
        for (const int r : {0, 1, 2, 4}) {
            reliability::MitigationSpec s;
            s.writeVerifyRetries = r;
            specs.push_back(s);
            labels.push_back(std::to_string(r));
        }
        sweep("Write-verify retry budget (raw BER 1e-3, no spares)",
              specs, "retries", labels);
    }
    {
        sim::ScopedPhaseTimer timer("spare sweep");
        std::vector<reliability::MitigationSpec> specs;
        std::vector<std::string> labels;
        for (const int sp : {0, 2, 4, 8}) {
            reliability::MitigationSpec s;
            s.writeVerifyRetries = 1;
            s.spareRows = sp;
            s.spareCols = sp / 2;
            specs.push_back(s);
            labels.push_back(std::to_string(sp) + "+" +
                             std::to_string(sp / 2));
        }
        sweep("Spare rows+cols (raw BER 1e-3, 1 retry)", specs,
              "spares", labels);
    }
    std::printf("retries buy exponential soft-error suppression for "
                "linear write-energy cost; spares buy hard-fault "
                "coverage until they exhaust.\n");
    sim::printPhaseTimes();
}

void
BM_CampaignPoint(benchmark::State &state)
{
    reliability::CampaignOptions opt;
    opt.network = "lenet5";
    opt.trials = 4;
    opt.bers = {1e-3};
    opt.lifetimes = {};
    opt.runWs = false;
    opt.mitigation.writeVerifyRetries = 2;
    opt.mitigation.spareRows = 4;
    for (auto _ : state) {
        // A fresh fault seed per iteration: every run is a new campaign.
        opt.fault.seed = std::uint64_t(state.iterations());
        const auto result = reliability::runCampaign(opt);
        benchmark::DoNotOptimize(result.trialsRun);
    }
}
BENCHMARK(BM_CampaignPoint);

} // namespace

INCA_BENCH_MAIN(report)
