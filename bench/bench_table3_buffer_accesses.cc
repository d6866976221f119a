/**
 * @file
 * Table III: estimated buffer accesses during inference, baseline
 * (Eq. 5 x O_H x O_W + Eq. 6) versus INCA (Eq. 5 x N), under the
 * Table II configuration (8-bit data, 256-bit bus, convolution
 * layers). Our INCA column reproduces the paper's VGG16 / VGG19 /
 * ResNet18 values to <0.1 %; the remaining networks' block details
 * differ slightly from the authors' reconstruction.
 */

#include "bench_common.hh"

#include "common/table.hh"
#include "dataflow/access_model.hh"
#include "nn/model_zoo.hh"

namespace {

using namespace inca;

void
report()
{
    bench::banner("Table III: buffer accesses during inference "
                  "(8-bit data, 256-bit bus)");
    const dataflow::AccessConfig cfg{8, 256};
    const struct
    {
        const char *name;
        double paperBase, paperInca;
    } paper[] = {
        {"vgg16", 1544496, 460000},   {"vgg19", 1952176, 625888},
        {"resnet18", 632880, 349024}, {"resnet50", 711022, 508950},
        {"mobilenetv2", 258024, 66832}, {"mnasnet", 244656, 92333},
    };

    TextTable t({"network", "baseline (ours)", "baseline (paper)",
                 "INCA (ours)", "INCA (paper)"});
    const auto suite = nn::evaluationSuite();
    for (size_t i = 0; i < suite.size(); ++i) {
        const auto s = dataflow::networkAccesses(suite[i], cfg);
        t.addRow({suite[i].name, TextTable::count(double(s.baseline)),
                  TextTable::count(paper[i].paperBase),
                  TextTable::count(double(s.inca)),
                  TextTable::count(paper[i].paperInca)});
    }
    t.print();
    std::printf("training roughly doubles INCA's accesses "
                "(transposed-weight fetches):\n");
    TextTable tt({"network", "inference (IS)", "training (IS)"});
    for (const auto &net : suite) {
        const auto inf = dataflow::networkAccesses(net, cfg);
        const auto trn = dataflow::networkTrainingAccesses(net, cfg);
        tt.addRow({net.name, TextTable::count(double(inf.inca)),
                   TextTable::count(double(trn.inca))});
    }
    tt.print();
}

} // namespace

INCA_BENCH_MAIN(report)
