/**
 * @file
 * Ablation (paper Section VI, quantified): RRAM endurance under the
 * two dataflows. IS rewrites its activation cells at every layer of
 * every iteration -- the endurance price of the energy/latency wins
 * the paper reports -- while WS mostly rewrites weight cells at
 * updates. This bench turns the paper's qualitative future-work
 * concern into numbers: writes per cell per training iteration and
 * the iterations-to-wear-out at three device ratings.
 */

#include "bench_common.hh"

#include <vector>

#include "arch/endurance.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "nn/model_zoo.hh"
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
report()
{
    bench::banner("Section VI quantified: RRAM endurance under IS "
                  "vs. WS training (batch 64)");
    // Networks are independent: fan them across the pool into
    // pre-sized row slots so the table is identical at any thread
    // count.
    TextTable t({"network", "IS writes/cell/iter",
                 "WS writes/cell/iter", "IS iters @1e9",
                 "WS iters @1e9"});
    const auto suite = nn::evaluationSuite();
    std::vector<std::vector<std::string>> rows(suite.size());
    {
        sim::ScopedPhaseTimer timer("endurance suite");
        parallel_for(
            std::int64_t(suite.size()), 1,
            [&](std::int64_t lo, std::int64_t hi) {
                for (std::int64_t i = lo; i < hi; ++i) {
                    const auto &net = suite[size_t(i)];
                    const auto is = arch::incaEndurance(
                        net, arch::paperInca(), 64);
                    const auto ws = arch::baselineEndurance(
                        net, arch::paperBaseline(), 64);
                    rows[size_t(i)] = {
                        net.name,
                        TextTable::num(is.writesPerCellPerIteration,
                                       2),
                        TextTable::num(ws.writesPerCellPerIteration,
                                       2),
                        sci(is.iterationsToWearOut),
                        sci(ws.iterationsToWearOut)};
                }
            });
    }
    for (const auto &row : rows)
        t.addRow(row);
    t.print();

    bench::banner("Device-rating sensitivity (ResNet18)");
    TextTable tr({"endurance rating", "IS iterations to wear-out",
                  "epochs of ImageNet (20k iters/epoch)"});
    const std::vector<double> ratings = {arch::kEnduranceConservative,
                                         arch::kEnduranceTypical,
                                         arch::kEnduranceOptimistic};
    std::vector<std::vector<std::string>> ratingRows(ratings.size());
    {
        sim::ScopedPhaseTimer timer("device-rating sweep");
        parallel_for(
            std::int64_t(ratings.size()), 1,
            [&](std::int64_t lo, std::int64_t hi) {
                for (std::int64_t i = lo; i < hi; ++i) {
                    const auto is = arch::incaEndurance(
                        nn::resnet18(), arch::paperInca(), 64,
                        ratings[size_t(i)]);
                    ratingRows[size_t(i)] = {
                        sci(ratings[size_t(i)]),
                        sci(is.iterationsToWearOut),
                        sci(is.iterationsToWearOut / 2.0e4)};
                }
            });
    }
    for (const auto &row : ratingRows)
        tr.addRow(row);
    tr.print();
    std::printf("the paper's reading holds: at today's ~1e9 ratings "
                "IS training is viable for many runs, at early-device "
                "1e6 it is not -- hence Section VI's reliance on "
                "endurance progress [25], [43].\n");

    sim::printPhaseTimes();
}

} // namespace

INCA_BENCH_MAIN(report)
