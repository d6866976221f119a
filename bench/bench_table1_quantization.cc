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
#include "common/table.hh"
#include "nn/trainer.hh"

namespace {

using namespace inca;
using namespace inca::nn;

void
report()
{
    setQuiet(true);
    bench::banner("Table I: accuracy drop vs. weight / activation "
                  "bit depth (synthetic substitution)");
    const AccuracyStudy study;
    auto runs = study.trainRuns({NoiseSpec{}});
    Sequential &net = *runs[0].net;

    // Float first, then W8/A7..A4, W7..W4/A8, and below the paper's
    // range W8/A3, W3/A8, W8/A2, W2/A8 to expose the breakdown point.
    std::vector<EvalOptions> options(1);
    const auto at = [&](int wBits, int aBits) {
        EvalOptions o;
        o.weightBits = wBits;
        o.actBits = aBits;
        options.push_back(o);
    };
    for (int bits = 7; bits >= 4; --bits)
        at(8, bits);
    for (int bits = 7; bits >= 4; --bits)
        at(bits, 8);
    for (int bits : {3, 2}) {
        at(8, bits);
        at(bits, 8);
    }
    const std::vector<double> acc = study.evaluateAll(net, options);
    const double fp = acc[0];
    std::printf("float baseline accuracy: %.1f %%\n", 100.0 * fp);
    size_t next = 1; // the rows below read acc in the order above

    const double paperAct[] = {-0.3, -0.4, -1.3, -3.5};
    const double paperWt[] = {-1.3, -1.1, -3.1, -11.4};

    TextTable t({"config", "accuracy", "drop vs. float",
                 "(paper drop, ImageNet)"});
    for (int i = 0; i < 4; ++i) {
        const int bits = 7 - i;
        const double a = acc[next++];
        char cfgName[32];
        std::snprintf(cfgName, sizeof(cfgName), "W8 / A%d", bits);
        t.addRow({cfgName, TextTable::num(100.0 * a, 1) + " %",
                  TextTable::num(100.0 * (a - fp), 1) + " %",
                  TextTable::num(paperAct[i], 1) + " %"});
    }
    t.addRule();
    for (int i = 0; i < 4; ++i) {
        const int bits = 7 - i;
        const double a = acc[next++];
        char cfgName[32];
        std::snprintf(cfgName, sizeof(cfgName), "W%d / A8", bits);
        t.addRow({cfgName, TextTable::num(100.0 * a, 1) + " %",
                  TextTable::num(100.0 * (a - fp), 1) + " %",
                  TextTable::num(paperWt[i], 1) + " %"});
    }
    t.addRule();
    for (int bits : {3, 2}) {
        char a[32], b[32];
        std::snprintf(a, sizeof(a), "W8 / A%d", bits);
        std::snprintf(b, sizeof(b), "W%d / A8", bits);
        t.addRow({a, TextTable::num(100.0 * acc[next++], 1) + " %", "-",
                  "-"});
        t.addRow({b, TextTable::num(100.0 * acc[next++], 1) + " %", "-",
                  "-"});
    }
    t.print();
}

} // namespace

INCA_BENCH_MAIN(report)
