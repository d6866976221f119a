/**
 * @file
 * Table IV: required memory footprint (RRAM arrays and buffers) to
 * support both inference and training, baseline versus INCA. Our
 * structural model (baseline RRAM = 2 x weights + activations;
 * baseline buffers = activations; INCA RRAM = activations; INCA
 * buffers = weights; all at 8-bit, in MiB) reproduces the paper's
 * numbers nearly exactly.
 */

#include "bench_common.hh"

#include "common/table.hh"
#include "dataflow/footprint.hh"
#include "nn/model_zoo.hh"

namespace {

using namespace inca;

void
report()
{
    bench::banner("Table IV: memory footprint [MiB] for inference + "
                  "training");
    const struct
    {
        const char *name;
        double bRram, bBuf, iRram, iBuf;
    } paper[] = {
        {"vgg16", 272.57, 8.69, 8.69, 131.94},
        {"vgg19", 283.94, 9.94, 9.94, 137.00},
        {"resnet18", 24.36, 2.08, 2.08, 11.14},
        {"resnet50", 58.79, 10.15, 10.15, 24.32},
        {"mobilenetv2", 13.05, 6.45, 6.45, 3.31},
        {"mnasnet", 13.57, 5.29, 5.29, 4.14},
    };

    TextTable t({"network", "base RRAM", "(paper)", "base buf",
                 "(paper)", "INCA RRAM", "(paper)", "INCA buf",
                 "(paper)"});
    const auto suite = nn::evaluationSuite();
    for (size_t i = 0; i < suite.size(); ++i) {
        const auto row = dataflow::footprint(suite[i]);
        t.addRow({suite[i].name,
                  TextTable::num(dataflow::toMiB(row.baseline.rram)),
                  TextTable::num(paper[i].bRram),
                  TextTable::num(dataflow::toMiB(row.baseline.buffers)),
                  TextTable::num(paper[i].bBuf),
                  TextTable::num(dataflow::toMiB(row.inca.rram)),
                  TextTable::num(paper[i].iRram),
                  TextTable::num(dataflow::toMiB(row.inca.buffers)),
                  TextTable::num(paper[i].iBuf)});
    }
    t.print();
    std::printf("Limitation 2 in numbers: the WS baseline must hold a "
                "transposed weight copy and the activations in RRAM; "
                "INCA recycles the activation cells for errors and "
                "reads the transposed weights from the same buffer "
                "bytes.\n");
}

} // namespace

INCA_BENCH_MAIN(report)
