/**
 * @file
 * Table VI: training accuracy under RRAM nonideality modelled as
 * zero-centered Gaussian noise (after Yu [65]) applied to the
 * RRAM-resident operand -- weights for the WS baseline, activations
 * for INCA -- with sigma swept over the paper's 0.005..0.05 range.
 *
 * Substitution (see DESIGN.md): the paper fine-tunes a pretrained
 * ImageNet ResNet18 for 10 epochs; we train a small ResNet-style CNN
 * on the synthetic task. The mechanism is preserved: WS reprograms
 * its weight cells at every update, so programming noise accumulates
 * as a random walk over the run, while IS activation noise is
 * transient and never reaches the digital classifier head. Paper
 * result: weights 82.13 -> 15.17 %, activations 89.21 -> 85.59 %.
 */

#include "bench_common.hh"

#include "common/logging.hh"
#include "common/table.hh"
#include "nn/trainer.hh"

namespace {

using namespace inca;
using namespace inca::nn;

void
report()
{
    setQuiet(true);
    bench::banner("Table VI: training accuracy vs. noise strength "
                  "(synthetic substitution)");
    const double sigmas[] = {0.005, 0.01, 0.02, 0.03, 0.05};
    const double paperWt[] = {82.13, 77.03, 58.36, 48.57, 15.17};
    const double paperAct[] = {89.21, 89.02, 88.50, 87.54, 85.59};

    // The 11 runs are independent: noise-free first, then the weight
    // and activation runs of each sigma.
    std::vector<NoiseSpec> noises = {NoiseSpec{NoiseTarget::None, 0.0}};
    for (const double sigma : sigmas) {
        noises.push_back(NoiseSpec{NoiseTarget::Weights, sigma});
        noises.push_back(NoiseSpec{NoiseTarget::Activations, sigma});
    }
    const auto runs = AccuracyStudy().trainRuns(noises);
    const auto accuracy = [&](size_t run) {
        return runs[run].result.finalTestAccuracy;
    };
    std::printf("noise-free accuracy: %.1f %%\n", 100.0 * accuracy(0));

    TextTable t({"sigma", "weights noisy (WS)", "(paper)",
                 "activations noisy (INCA)", "(paper)"});
    for (size_t i = 0; i < 5; ++i) {
        t.addRow({TextTable::num(sigmas[i], 3),
                  TextTable::num(100.0 * accuracy(1 + 2 * i), 1) + " %",
                  TextTable::num(paperWt[i], 2) + " %",
                  TextTable::num(100.0 * accuracy(2 + 2 * i), 1) + " %",
                  TextTable::num(paperAct[i], 2) + " %"});
    }
    t.print();
    std::printf("shape check: weight-side noise (the WS dataflow) "
                "degrades training towards chance while "
                "activation-side noise (INCA) stays near the "
                "noise-free accuracy.\n");
}

} // namespace

INCA_BENCH_MAIN(report)
