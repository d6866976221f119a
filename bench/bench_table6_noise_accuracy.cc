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
#include "common/random.hh"
#include "common/table.hh"
#include "nn/dataset.hh"
#include "nn/module.hh"
#include "nn/trainer.hh"

namespace {

using namespace inca;
using namespace inca::nn;

DatasetPair
task()
{
    SyntheticSpec spec;
    spec.numClasses = 6;
    spec.channels = 1;
    spec.size = 12;
    spec.trainPerClass = 25;
    spec.testPerClass = 15;
    spec.seed = 9;
    spec.pixelNoise = 0.25;
    return makeSynthetic(spec);
}

double
trainWithNoise(const DatasetPair &data, NoiseTarget target,
               double sigma)
{
    Rng rng(33);
    auto net = makeSmallResNet(1, 12, 6, 8, rng);
    TrainConfig cfg;
    cfg.epochs = 12;
    cfg.batchSize = 10;
    cfg.lr = 0.02f;
    cfg.noise = NoiseSpec{target, sigma};
    return train(*net, data, cfg).finalTestAccuracy;
}

void
report()
{
    setQuiet(true);
    bench::banner("Table VI: training accuracy vs. noise strength "
                  "(synthetic substitution)");
    auto data = task();
    const double clean =
        trainWithNoise(data, NoiseTarget::None, 0.0);
    std::printf("noise-free accuracy: %.1f %%\n", 100.0 * clean);

    const double sigmas[] = {0.005, 0.01, 0.02, 0.03, 0.05};
    const double paperWt[] = {82.13, 77.03, 58.36, 48.57, 15.17};
    const double paperAct[] = {89.21, 89.02, 88.50, 87.54, 85.59};

    TextTable t({"sigma", "weights noisy (WS)", "(paper)",
                 "activations noisy (INCA)", "(paper)"});
    for (size_t i = 0; i < 5; ++i) {
        const double accW =
            trainWithNoise(data, NoiseTarget::Weights, sigmas[i]);
        const double accA =
            trainWithNoise(data, NoiseTarget::Activations, sigmas[i]);
        t.addRow({TextTable::num(sigmas[i], 3),
                  TextTable::num(100.0 * accW, 1) + " %",
                  TextTable::num(paperWt[i], 2) + " %",
                  TextTable::num(100.0 * accA, 1) + " %",
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
