/**
 * @file
 * Figure 16: (a) INCA's utilization versus array size -- 16 x 16 is
 * the sweet spot, larger planes waste cells on the small late-layer
 * feature maps; (b) utilization across the evaluation networks --
 * INCA stays flat while the WS baseline collapses on the depthwise /
 * pointwise light models (3x3 depthwise kernels use 9 of 128 rows).
 */

#include "bench_common.hh"

#include "arch/utilization.hh"
#include "common/table.hh"
#include "nn/model_zoo.hh"
#include "sim/plot.hh"

namespace {

using namespace inca;

void
report()
{
    bench::banner("Figure 16a: INCA utilization vs. array size");
    const int sizes[] = {8, 16, 32, 64, 128};
    {
        std::vector<std::string> headers{"network"};
        for (int s : sizes)
            headers.push_back(std::to_string(s) + "x" +
                              std::to_string(s));
        TextTable t(headers);
        for (const auto &net : nn::evaluationSuite()) {
            std::vector<std::string> row{net.name};
            for (int s : sizes) {
                row.push_back(TextTable::num(
                    100.0 * arch::incaNetworkUtilization(net, s), 1));
            }
            t.addRow(row);
        }
        t.print();
        std::printf("(values in %%; the paper picks 16x16 as the "
                    "smallest size with competitive utilization)\n");
    }

    bench::banner("Figure 16b: utilization, INCA (16x16) vs. WS "
                  "baseline (128x128)");
    TextTable t({"network", "INCA", "WS baseline"});
    for (const auto &net : nn::evaluationSuite()) {
        t.addRow({net.name,
                  TextTable::num(
                      100.0 * arch::incaNetworkUtilization(net, 16),
                      1) + " %",
                  TextTable::num(
                      100.0 * arch::wsNetworkUtilization(net, 128),
                      1) + " %"});
    }
    t.print();
    std::vector<sim::Bar> bars;
    for (const auto &net : nn::evaluationSuite()) {
        bars.push_back({net.name + " (INCA)",
                        100.0 * arch::incaNetworkUtilization(net, 16)});
        bars.push_back({net.name + " (WS)",
                        100.0 * arch::wsNetworkUtilization(net, 128)});
    }
    sim::BarOptions bopt;
    bopt.unit = "%";
    std::printf("\n%s", sim::barChart(bars, bopt).c_str());
    std::printf("shape check: INCA stays roughly constant across "
                "networks; WS collapses on MobileNetV2 / MNasNet "
                "(depthwise kernels fill 9 of 128 rows).\n");
}

} // namespace

INCA_BENCH_MAIN(report)
