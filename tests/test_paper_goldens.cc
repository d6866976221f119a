/**
 * @file
 * Golden snapshots of the paper-table headline numbers.
 *
 * The differential/parallelism work elsewhere in the test suite
 * guarantees the tensor paths compute the same FUNCTION; these tests
 * pin the analytic models' VALUES. Every constant below was captured
 * from the models at the Table II design point (8-bit data, 256-bit
 * bus, paper INCA and baseline configs) and is asserted exactly:
 * access counts are integers, and the footprint/area models are
 * closed-form double arithmetic with one deterministic evaluation
 * order, so any drift -- however small -- is a model change that must
 * be reviewed, not noise.
 *
 *  - Table III: buffer accesses per image, WS baseline vs. INCA
 *  - Table IV:  RRAM + buffer footprint per image
 *  - Table V:   chip area breakdown
 *  - Fig. 11 / Fig. 14: per-network energy-efficiency gain and
 *    speedup at batch 64 (snapshot in goldens_fig11_fig14.inc,
 *    regenerated by scripts/regen_goldens.sh)
 *
 * The PaperScoreboard cases check the other side: how far each of
 * these values sits from the number the paper prints (sim/paper.hh).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "arch/area.hh"
#include "arch/config.hh"
#include "baseline/engine.hh"
#include "dataflow/access_model.hh"
#include "dataflow/footprint.hh"
#include "inca/engine.hh"
#include "nn/model_zoo.hh"
#include "sim/paper.hh"

namespace inca {
namespace {

const dataflow::AccessConfig kPaperAccessConfig{8, 256};

struct AccessGolden
{
    const char *network;
    std::uint64_t baseline;
    std::uint64_t inca;
};

/** Table III: inference buffer accesses (Eqs. 5 & 6). */
const std::vector<AccessGolden> kTable3 = {
    {"vgg16", 2985472, 459712},     {"vgg19", 3393152, 625600},
    {"resnet18", 541744, 348992},   {"resnet50", 1034096, 732992},
    {"mobilenetv2", 356524, 73712}, {"mnasnet", 340109, 100024},
};

TEST(PaperGoldens, Table3InferenceBufferAccesses)
{
    const auto suite = nn::evaluationSuite();
    ASSERT_EQ(suite.size(), kTable3.size());
    for (size_t i = 0; i < suite.size(); ++i) {
        SCOPED_TRACE(suite[i].name);
        EXPECT_EQ(suite[i].name, kTable3[i].network);
        const auto a =
            dataflow::networkAccesses(suite[i], kPaperAccessConfig);
        EXPECT_EQ(a.baseline, kTable3[i].baseline);
        EXPECT_EQ(a.inca, kTable3[i].inca);
    }
}

TEST(PaperGoldens, Table3TrainingDoublesBothCounts)
{
    for (const auto &net : nn::evaluationSuite()) {
        SCOPED_TRACE(net.name);
        const auto inf =
            dataflow::networkAccesses(net, kPaperAccessConfig);
        const auto tr = dataflow::networkTrainingAccesses(
            net, kPaperAccessConfig);
        EXPECT_EQ(tr.baseline, 2 * inf.baseline);
        EXPECT_EQ(tr.inca, 2 * inf.inca);
    }
}

struct FootprintGolden
{
    const char *network;
    double baselineRram, baselineBuffers; // bytes
    double incaRram, incaBuffers;         // bytes
};

/** Table IV: per-image footprint at 8-bit precision, in bytes. */
const std::vector<FootprintGolden> kTable4 = {
    {"vgg16", 285803392.0, 9115136.0, 9115136.0, 138344128.0},
    {"vgg19", 297724800.0, 10419712.0, 10419712.0, 143652544.0},
    {"resnet18", 25540992.0, 2183168.0, 2183168.0, 11678912.0},
    {"resnet50", 61670272.0, 10664448.0, 10664448.0, 25502912.0},
    {"mobilenetv2", 13706720.0, 6767200.0, 6767200.0, 3469760.0},
    {"mnasnet", 14234512.0, 5545728.0, 5545728.0, 4344392.0},
};

TEST(PaperGoldens, Table4FootprintBytes)
{
    const auto suite = nn::evaluationSuite();
    ASSERT_EQ(suite.size(), kTable4.size());
    for (size_t i = 0; i < suite.size(); ++i) {
        SCOPED_TRACE(suite[i].name);
        EXPECT_EQ(suite[i].name, kTable4[i].network);
        const auto f = dataflow::footprint(suite[i]);
        EXPECT_EQ(f.baseline.rram, kTable4[i].baselineRram);
        EXPECT_EQ(f.baseline.buffers, kTable4[i].baselineBuffers);
        EXPECT_EQ(f.inca.rram, kTable4[i].incaRram);
        EXPECT_EQ(f.inca.buffers, kTable4[i].incaBuffers);
    }
}

TEST(PaperGoldens, Table4FootprintSwapStructure)
{
    // The paper's structural claim: INCA's RRAM need equals the
    // baseline's buffer need (activations swap sides).
    for (const auto &net : nn::evaluationSuite()) {
        SCOPED_TRACE(net.name);
        const auto f = dataflow::footprint(net);
        EXPECT_EQ(f.inca.rram, f.baseline.buffers);
    }
}

TEST(PaperGoldens, Table4MiBConversion)
{
    const auto f = dataflow::footprint(nn::vgg16());
    EXPECT_EQ(dataflow::toMiB(f.baseline.rram), 272.5633544921875);
    EXPECT_EQ(dataflow::toMiB(f.inca.buffers), 131.93524169921875);
}

TEST(PaperGoldens, Table5BaselineAreaBreakdown)
{
    const auto a = arch::baselineArea(arch::paperBaseline());
    EXPECT_EQ(a.buffer, 1.3944000000000001e-05);
    EXPECT_EQ(a.array, 8.000069991137282e-06);
    EXPECT_EQ(a.adc, 3.0288383999999999e-05);
    EXPECT_EQ(a.dac, 3.4268774399999998e-07);
    EXPECT_EQ(a.postProcessing, 3.6560000000000002e-06);
    EXPECT_EQ(a.others, 2.7920000000000004e-05);
    EXPECT_EQ(a.total(), 8.4151141735137286e-05);
}

TEST(PaperGoldens, Table5IncaAreaBreakdown)
{
    const auto a = arch::incaArea(arch::paperInca());
    EXPECT_EQ(a.buffer, 1.3944000000000001e-05);
    EXPECT_EQ(a.array, 8.0183977574400003e-07);
    EXPECT_EQ(a.adc, 4.5803519999999997e-06);
    EXPECT_EQ(a.dac, 6.8537548799999995e-07);
    EXPECT_EQ(a.postProcessing, 3.6560000000000002e-06);
    EXPECT_EQ(a.others, 2.4249000000000001e-05);
    EXPECT_EQ(a.total(), 4.7916567263744001e-05);
}

/** One network's Fig. 11 / Fig. 14 point (see golden_gen.cc). */
struct EngineGolden
{
    const char *network;
    double inferenceGain, inferenceSpeedup; // Fig. 11 / Fig. 14
    double trainingGain, trainingSpeedup;
};

#include "goldens_fig11_fig14.inc"

TEST(PaperGoldens, Fig11EnergyGainAndFig14Speedup)
{
    const auto suite = nn::evaluationSuite();
    ASSERT_EQ(suite.size(), std::size(kFig11Fig14));
    core::IncaEngine inca(arch::paperInca());
    baseline::BaselineEngine base(arch::paperBaseline());
    for (size_t i = 0; i < suite.size(); ++i) {
        const auto &net = suite[i];
        const auto &g = kFig11Fig14[i];
        SCOPED_TRACE(net.name);
        EXPECT_EQ(net.name, g.network);
        const auto iInf = inca.inference(net, kGoldenBatch);
        const auto bInf = base.inference(net, kGoldenBatch);
        EXPECT_EQ(bInf.energy() / iInf.energy(), g.inferenceGain);
        EXPECT_EQ(bInf.latency / iInf.latency, g.inferenceSpeedup);
        const auto iTrn = inca.training(net, kGoldenBatch);
        const auto bTrn = base.training(net, kGoldenBatch);
        EXPECT_EQ(bTrn.energy() / iTrn.energy(), g.trainingGain);
        EXPECT_EQ(bTrn.latency / iTrn.latency, g.trainingSpeedup);
    }
}

TEST(PaperGoldens, Fig11Fig14ShapesMatchThePaper)
{
    // The qualitative claims the snapshot encodes: INCA ahead
    // everywhere, and training gains exceed inference gains.
    for (const auto &g : kFig11Fig14) {
        SCOPED_TRACE(g.network);
        EXPECT_GT(g.inferenceGain, 1.0);
        EXPECT_GT(g.inferenceSpeedup, 1.0);
        EXPECT_GT(g.trainingGain, g.inferenceGain);
        EXPECT_GT(g.trainingSpeedup, g.inferenceSpeedup);
    }
}

TEST(PaperGoldens, Table5HeadlineRatios)
{
    // Headline claims the snapshot protects: INCA's 10x array and
    // ~6.6x ADC area reduction, and the ~1.76x whole-chip win.
    const auto base = arch::baselineArea(arch::paperBaseline());
    const auto inca = arch::incaArea(arch::paperInca());
    EXPECT_NEAR(base.array / inca.array, 9.977, 0.01);
    EXPECT_NEAR(base.adc / inca.adc, 6.613, 0.01);
    EXPECT_NEAR(base.total() / inca.total(), 1.756, 0.01);
}

TEST(PaperScoreboard, EveryAnalyticRowSitsOnItsTightestRung)
{
    const auto rows = sim::analyticRows();
    ASSERT_FALSE(rows.empty());
    for (const auto &row : rows) {
        SCOPED_TRACE(row.name);
        const double gap = row.gap();
        EXPECT_LE(gap, row.tolerance)
            << "ours " << row.ours << " vs paper " << row.paper
            << " is outside the tolerance";
        EXPECT_EQ(sim::tightestRung(gap), row.tolerance)
            << "gap " << gap << " sits on another rung";
        if (gap > 1.01) {
            EXPECT_FALSE(row.cause.empty())
                << "gap " << gap << " above 1 % names no cause";
        }
        if (row.cause.rfind("unexplained", 0) == 0) {
            EXPECT_NE(row.cause.find("Ruled out"), std::string::npos)
                << "an unexplained gap lists what was ruled out";
        }
    }
}

TEST(PaperScoreboard, RowNamesAreUnique)
{
    const auto rows = sim::analyticRows();
    for (size_t i = 0; i < rows.size(); ++i) {
        for (size_t j = 0; j < i; ++j)
            EXPECT_NE(rows[i].name, rows[j].name);
    }
}

TEST(PaperScoreboard, TightestRungClimbsTheLadder)
{
    EXPECT_EQ(sim::tightestRung(1.0), 1.001);
    EXPECT_EQ(sim::tightestRung(1.001), 1.001);
    EXPECT_EQ(sim::tightestRung(1.0011), 1.005);
    EXPECT_EQ(sim::tightestRung(9.99), 10.0);
    EXPECT_EQ(sim::tightestRung(10.01), 0.0);
}

TEST(PaperScoreboard, TrainingRowsCarryNoTolerance)
{
    const std::string name = "Table VI weights noisy sigma 0.050 (%)";
    const auto row = sim::paperRow(name, 16.7);
    EXPECT_EQ(row.name, name);
    EXPECT_EQ(row.paper, sim::paperValue(name));
    EXPECT_EQ(row.ours, 16.7);
    EXPECT_EQ(row.tolerance, 0.0);
    EXPECT_EQ(row.cause, "synthetic substitution (DESIGN §1)");
}

TEST(PaperScoreboardDeath, UnknownRowPanics)
{
    EXPECT_DEATH(sim::paperValue("Table IX nothing"), "Table IX");
}

} // namespace
} // namespace inca
