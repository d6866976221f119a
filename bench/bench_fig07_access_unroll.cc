/**
 * @file
 * Figure 7a: memory-access counts of WS vs. IS dataflow (16-bit data,
 * 256-bit bus) across the evaluation networks -- the paper finds WS
 * needs roughly 2x (ResNets) to 3x (VGGs) more accesses.
 *
 * Figure 7b: the number of input parameters an unrolled (GEMM-style)
 * IS layout would need versus direct convolution -- the paper reports
 * 4.4x / 5.0x / 8.0x / 2.1x for VGG16 / VGG19 / ResNet18 / ResNet50,
 * motivating INCA's 2T1R direct-convolution array.
 */

#include "bench_common.hh"

#include "common/table.hh"
#include "dataflow/access_model.hh"
#include "dataflow/unroll.hh"
#include "nn/model_zoo.hh"

namespace {

using namespace inca;

void
report()
{
    bench::banner("Figure 7a: WS vs. IS memory accesses "
                  "(16-bit data, 256-bit bus)");
    const dataflow::AccessConfig cfg{16, 256};
    TextTable t7a({"network", "WS accesses", "IS accesses",
                   "WS / IS"});
    for (const auto &net : nn::evaluationSuite()) {
        const auto s = dataflow::networkAccesses(net, cfg);
        t7a.addRow({net.name, TextTable::count(double(s.baseline)),
                    TextTable::count(double(s.inca)),
                    TextTable::ratio(s.ratio())});
    }
    t7a.print();
    std::printf("paper: WS requires ~2x (ResNets) to ~3x (VGGs) more "
                "accesses; our WS accounting follows the printed Eqs. "
                "5/6 and lands above the paper's bars, preserving the "
                "ordering (VGGs > ResNets).\n");

    bench::banner("Figure 7b: unrolled vs. direct IS input "
                  "parameters");
    const double paper[] = {4.4, 5.0, 8.0, 2.1};
    TextTable t7b({"network", "unrolled", "direct", "ratio",
                   "paper"});
    const auto heavy = nn::heavySuite();
    for (size_t i = 0; i < heavy.size(); ++i) {
        const auto s = dataflow::unrollComparison(heavy[i]);
        t7b.addRow({heavy[i].name,
                    TextTable::count(double(s.unrolled)),
                    TextTable::count(double(s.direct)),
                    TextTable::ratio(s.ratio()),
                    TextTable::ratio(paper[i])});
    }
    for (const auto &net : {nn::mobilenetV2(), nn::mnasnet()}) {
        const auto s = dataflow::unrollComparison(net);
        t7b.addRow({net.name, TextTable::count(double(s.unrolled)),
                    TextTable::count(double(s.direct)),
                    TextTable::ratio(s.ratio()), "-"});
    }
    t7b.print();
}

} // namespace

INCA_BENCH_MAIN(report)
