/**
 * @file
 * Training-loop tests, including the small-scale version of the
 * paper's Table VI invariant: RRAM noise on weights (WS) degrades
 * accuracy far more than the same noise on activations (IS / INCA),
 * and the AccuracyStudy fan-out of whole runs and evaluations.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "nn/dataset.hh"
#include "nn/module.hh"
#include "nn/trainer.hh"

namespace inca {
namespace nn {
namespace {

DatasetPair
smallTask()
{
    SyntheticSpec spec;
    spec.numClasses = 3;
    spec.channels = 1;
    spec.size = 8;
    spec.trainPerClass = 24;
    spec.testPerClass = 12;
    spec.seed = 5;
    return makeSynthetic(spec);
}

std::unique_ptr<Sequential>
smallNet(std::uint64_t seed = 21)
{
    Rng rng(seed);
    auto net = std::make_unique<Sequential>();
    net->emplace<Conv2d>(1, 6, 3, 1, 1, rng);
    net->emplace<ReLU>();
    net->emplace<MaxPool2d>(2);
    net->emplace<Flatten>();
    net->emplace<Linear>(6 * 4 * 4, 3, rng);
    return net;
}

TEST(Trainer, LossDecreasesOverEpochs)
{
    setQuiet(true);
    auto data = smallTask();
    auto net = smallNet();
    TrainConfig cfg;
    cfg.epochs = 6;
    cfg.batchSize = 8;
    cfg.lr = 0.05f;
    auto result = train(*net, data, cfg);
    ASSERT_EQ(result.epochLoss.size(), 6u);
    EXPECT_LT(result.epochLoss.back(), result.epochLoss.front());
}

TEST(Trainer, ReachesHighAccuracyOnCleanHardware)
{
    setQuiet(true);
    auto data = smallTask();
    auto net = smallNet();
    TrainConfig cfg;
    cfg.epochs = 10;
    cfg.batchSize = 8;
    cfg.lr = 0.05f;
    auto result = train(*net, data, cfg);
    EXPECT_GE(result.finalTestAccuracy, 0.9);
}

TEST(Trainer, DeterministicForSeed)
{
    setQuiet(true);
    auto data = smallTask();
    TrainConfig cfg;
    cfg.epochs = 3;
    cfg.batchSize = 8;
    auto r1 = train(*smallNet(), data, cfg);
    auto r2 = train(*smallNet(), data, cfg);
    EXPECT_EQ(r1.epochLoss, r2.epochLoss);
    EXPECT_EQ(r1.finalTestAccuracy, r2.finalTestAccuracy);
}

TEST(Trainer, EvaluateCountsFractionCorrect)
{
    setQuiet(true);
    auto data = smallTask();
    auto net = smallNet();
    const double acc = evaluate(*net, data.test);
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
}

TEST(Trainer, TableSixInvariantWeightNoiseHurtsMore)
{
    // The paper's central accuracy claim at small scale: with the
    // same noise strength, storing WEIGHTS in noisy RRAM (the WS
    // baseline) costs far more accuracy than storing ACTIVATIONS in
    // noisy RRAM (INCA).
    setQuiet(true);
    auto data = smallTask();
    TrainConfig base;
    base.epochs = 10;
    base.batchSize = 8;
    base.lr = 0.05f;

    TrainConfig weightNoisy = base;
    weightNoisy.noise = NoiseSpec{NoiseTarget::Weights, 0.10};
    TrainConfig actNoisy = base;
    actNoisy.noise = NoiseSpec{NoiseTarget::Activations, 0.10};

    const double accWeights =
        train(*smallNet(), data, weightNoisy).finalTestAccuracy;
    const double accActs =
        train(*smallNet(), data, actNoisy).finalTestAccuracy;
    EXPECT_GT(accActs, accWeights + 0.05)
        << "activation-noise accuracy " << accActs
        << " should exceed weight-noise accuracy " << accWeights;
}

TEST(Trainer, EvalQuantizationDegradesWithFewerBits)
{
    // Table I background: accuracy falls as either operand's bit
    // depth shrinks. (The paper's weight-vs-activation quantization
    // asymmetry comes from deep heavy-tailed ImageNet models and does
    // not reproduce at this toy scale; see EXPERIMENTS.md.)
    setQuiet(true);
    auto data = smallTask();
    auto net = smallNet();
    TrainConfig cfg;
    cfg.epochs = 10;
    cfg.batchSize = 8;
    cfg.lr = 0.05f;
    train(*net, data, cfg);

    auto accAt = [&](int wBits, int aBits) {
        EvalOptions o;
        o.weightBits = wBits;
        o.actBits = aBits;
        return evaluate(*net, data.test, o);
    };
    // 8/8 must be (near-)lossless relative to float.
    EXPECT_GE(accAt(8, 8), evaluate(*net, data.test) - 0.05);
    // 1-2 bit operands must hurt badly.
    EXPECT_LT(accAt(2, 8) + accAt(8, 2), accAt(8, 8) + accAt(8, 8));
    // Monotone-ish: 4-bit never beats 8-bit by a margin.
    EXPECT_LE(accAt(4, 8), accAt(8, 8) + 0.05);
    EXPECT_LE(accAt(8, 4), accAt(8, 8) + 0.05);
}

TEST(Trainer, NoiseAccuracyDegradesWithSigma)
{
    setQuiet(true);
    auto data = smallTask();
    auto net = smallNet();
    TrainConfig cfg;
    cfg.epochs = 10;
    cfg.batchSize = 8;
    cfg.lr = 0.05f;
    train(*net, data, cfg);

    EvalOptions mild;
    mild.noise = NoiseSpec{NoiseTarget::Weights, 0.02};
    EvalOptions severe;
    severe.noise = NoiseSpec{NoiseTarget::Weights, 0.50};
    const double accMild = evaluate(*net, data.test, mild);
    const double accSevere = evaluate(*net, data.test, severe);
    EXPECT_GE(accMild, accSevere);
}

TEST(Trainer, ConcurrentEvaluateCallsMatchSerialOnes)
{
    // An inference forward writes nothing to the net, so evaluate()
    // calls under distinct hardware effects may share one trained
    // net. Each thread repeats its call to widen the overlap.
    setQuiet(true);
    auto data = smallTask();
    auto net = smallNet();
    TrainConfig cfg;
    cfg.epochs = 4;
    cfg.batchSize = 8;
    cfg.lr = 0.05f;
    train(*net, data, cfg);

    std::vector<EvalOptions> options(6);
    options[1].weightBits = 3;
    options[2].actBits = 3;
    options[3].noise = NoiseSpec{NoiseTarget::Weights, 0.3};
    options[4].noise = NoiseSpec{NoiseTarget::Activations, 0.3};
    options[5].weightBits = 2;
    options[5].noise = NoiseSpec{NoiseTarget::Weights, 0.1};
    std::vector<double> serial;
    for (const EvalOptions &o : options)
        serial.push_back(evaluate(*net, data.test, o));

    const int rounds = 20;
    std::vector<std::vector<double>> concurrent(options.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < options.size(); ++i)
        threads.emplace_back([&, i] {
            for (int r = 0; r < rounds; ++r)
                concurrent[i].push_back(
                    evaluate(*net, data.test, options[i]));
        });
    for (std::thread &t : threads)
        t.join();
    for (size_t i = 0; i < options.size(); ++i)
        EXPECT_EQ(concurrent[i], std::vector<double>(rounds, serial[i]))
            << "options " << i;
}

/** Every study case leaves the pool in the serial default. */
class Study : public ::testing::Test
{
  protected:
    void SetUp() override { setQuiet(true); }
    void TearDown() override { ThreadPool::setGlobalThreads(1); }
};

TEST_F(Study, TrainAndEvaluateMatchSerialCallsAtEveryLaneCount)
{
    SyntheticSpec tiny;
    tiny.numClasses = 3;
    tiny.size = 8;
    tiny.trainPerClass = 4;
    tiny.testPerClass = 3;
    const AccuracyStudy study(tiny);
    const std::vector<NoiseSpec> noises = {
        NoiseSpec{},
        NoiseSpec{NoiseTarget::Weights, 0.05},
        NoiseSpec{NoiseTarget::Activations, 0.05},
        NoiseSpec{NoiseTarget::Weights, 0.2},
    };
    std::vector<EvalOptions> options(5);
    options[1].weightBits = 3;
    options[2].actBits = 2;
    options[3].noise = NoiseSpec{NoiseTarget::Weights, 0.2};
    options[4].noise = NoiseSpec{NoiseTarget::Activations, 0.2};

    // The reference: one run and one evaluation at a time.
    ThreadPool::setGlobalThreads(1);
    std::vector<StudyRun> serial;
    for (const NoiseSpec &noise : noises)
        serial.push_back(std::move(study.trainRuns({noise})[0]));
    std::vector<double> serialAcc;
    for (const EvalOptions &o : options)
        serialAcc.push_back(evaluate(*serial[0].net, study.data().test, o));

    for (const int lanes : {1, 2, 4}) {
        SCOPED_TRACE(lanes);
        ThreadPool::setGlobalThreads(lanes);
        const std::vector<StudyRun> runs = study.trainRuns(noises);
        ASSERT_EQ(runs.size(), noises.size());
        for (size_t i = 0; i < runs.size(); ++i) {
            SCOPED_TRACE(i);
            EXPECT_EQ(runs[i].result.epochLoss, serial[i].result.epochLoss);
            EXPECT_EQ(runs[i].result.epochTestAccuracy,
                      serial[i].result.epochTestAccuracy);
        }
        EXPECT_EQ(study.evaluateAll(*serial[0].net, options), serialAcc);
    }
}

TEST_F(Study, TrainOnChipAccuraciesArePinned)
{
    // train_on_chip's three runs, which are also Table VI's
    // noise-free, W 0.05 and A 0.05 runs; each is a count of the 90
    // test images.
    const auto runs = AccuracyStudy().trainRuns(
        {NoiseSpec{}, NoiseSpec{NoiseTarget::Weights, 0.05},
         NoiseSpec{NoiseTarget::Activations, 0.05}});
    EXPECT_EQ(runs[0].result.finalTestAccuracy, 89.0 / 90.0);
    EXPECT_EQ(runs[1].result.finalTestAccuracy, 15.0 / 90.0);
    EXPECT_EQ(runs[2].result.finalTestAccuracy, 88.0 / 90.0);
}

} // namespace
} // namespace nn
} // namespace inca
