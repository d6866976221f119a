/**
 * @file
 * Table I (background, from [21]): accuracy drop when reducing the
 * activation bit depth under 8-bit weights, and the weight bit depth
 * under 8-bit activations. Substitution: the paper cites ImageNet
 * results from the quantization literature; we run the same sweep by
 * training our small CNN on the synthetic task and applying
 * post-training uniform quantization (see DESIGN.md). The
 * weight-vs-activation asymmetry of deep heavy-tailed ImageNet models
 * does not fully reproduce at this scale; the monotone degradation
 * with bit depth does, and EXPERIMENTS.md records the delta.
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

void
report()
{
    setQuiet(true);
    bench::banner("Table I: accuracy drop vs. weight / activation "
                  "bit depth (synthetic substitution)");
    auto data = task();
    Rng rng(33);
    auto net = makeSmallResNet(1, 12, 6, 8, rng);
    TrainConfig cfg;
    cfg.epochs = 12;
    cfg.batchSize = 10;
    cfg.lr = 0.02f;
    train(*net, data, cfg);
    const double fp = evaluate(*net, data.test);
    std::printf("float baseline accuracy: %.1f %%\n", 100.0 * fp);

    auto accAt = [&](int wBits, int aBits) {
        EvalOptions o;
        o.weightBits = wBits;
        o.actBits = aBits;
        return evaluate(*net, data.test, o);
    };

    const double paperAct[] = {-0.3, -0.4, -1.3, -3.5};
    const double paperWt[] = {-1.3, -1.1, -3.1, -11.4};

    TextTable t({"config", "accuracy", "drop vs. float",
                 "(paper drop, ImageNet)"});
    for (int i = 0; i < 4; ++i) {
        const int bits = 7 - i;
        const double acc = accAt(8, bits);
        char cfgName[32];
        std::snprintf(cfgName, sizeof(cfgName), "W8 / A%d", bits);
        t.addRow({cfgName, TextTable::num(100.0 * acc, 1) + " %",
                  TextTable::num(100.0 * (acc - fp), 1) + " %",
                  TextTable::num(paperAct[i], 1) + " %"});
    }
    t.addRule();
    for (int i = 0; i < 4; ++i) {
        const int bits = 7 - i;
        const double acc = accAt(bits, 8);
        char cfgName[32];
        std::snprintf(cfgName, sizeof(cfgName), "W%d / A8", bits);
        t.addRow({cfgName, TextTable::num(100.0 * acc, 1) + " %",
                  TextTable::num(100.0 * (acc - fp), 1) + " %",
                  TextTable::num(paperWt[i], 1) + " %"});
    }
    // Extend below the paper's range to expose the breakdown point.
    t.addRule();
    for (int bits : {3, 2}) {
        char a[32], b[32];
        std::snprintf(a, sizeof(a), "W8 / A%d", bits);
        std::snprintf(b, sizeof(b), "W%d / A8", bits);
        t.addRow({a, TextTable::num(100.0 * accAt(8, bits), 1) + " %",
                  "-", "-"});
        t.addRow({b, TextTable::num(100.0 * accAt(bits, 8), 1) + " %",
                  "-", "-"});
    }
    t.print();
}

} // namespace

INCA_BENCH_MAIN(report)
