/**
 * @file
 * SGD training and evaluation loops for the accuracy experiments.
 *
 * Reproduces the paper's Table VI protocol: train for a fixed number of
 * epochs with RRAM noise injected into weights (WS hardware) or
 * activations (IS hardware / INCA) and report test accuracy, evaluated
 * under the same hardware noise. Also drives the Table I post-training
 * quantization sweep. AccuracyStudy is the one entry point those
 * studies share: their task, their training recipe, and a fan-out of
 * whole runs and evaluations across the ThreadPool.
 */

#ifndef INCA_NN_TRAINER_HH
#define INCA_NN_TRAINER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/dataset.hh"
#include "nn/module.hh"

namespace inca {
namespace nn {

/** Training hyperparameters and hardware-effect configuration. */
struct TrainConfig
{
    int epochs = 10;
    std::int64_t batchSize = 16;
    float lr = 0.05f;
    NoiseSpec noise;            ///< injected in every forward pass
    std::uint64_t seed = 11;
    bool verbose = false;
};

/** Per-epoch training trace. */
struct TrainResult
{
    std::vector<double> epochLoss;
    std::vector<double> epochTestAccuracy; ///< fraction in [0, 1]
    double finalTestAccuracy = 0.0;
};

/** Hardware effects applied at evaluation time. */
struct EvalOptions
{
    NoiseSpec noise;
    int weightBits = 0; ///< post-training weight quantization (0 = off)
    int actBits = 0;    ///< activation quantization (0 = off)
    std::uint64_t seed = 23;
};

/** Train @p net on @p data.train, testing each epoch on @p data.test. */
TrainResult train(Sequential &net, const DatasetPair &data,
                  const TrainConfig &config);

/**
 * Test accuracy (fraction correct) under the given hardware effects.
 * Writes nothing to @p net, so calls may share one net concurrently.
 */
double evaluate(Sequential &net, const Dataset &test,
                const EvalOptions &options = {});

/** One training run of an AccuracyStudy. */
struct StudyRun
{
    std::unique_ptr<Sequential> net; ///< the trained network
    TrainResult result;
};

/**
 * The accuracy studies (Tables I and VI, and train_on_chip's
 * miniature Table VI): one synthetic task and one training recipe.
 * Every run trains a fresh makeSmallResNet of base width 8, built from
 * Rng(33), for 12 epochs in batches of 10 at lr 0.02.
 *
 * Runs only read the task, and evaluations only read the net, so
 * trainRuns() and evaluateAll() give each run or evaluation one
 * ThreadPool task. Their results equal one-at-a-time serial calls
 * bit for bit at every lane count.
 */
class AccuracyStudy
{
  public:
    /**
     * The studies' task: 6 classes of 12x12 single-channel images,
     * 25 train and 15 test images per class, seed 9, pixel noise 0.25.
     */
    static SyntheticSpec defaultTask();

    explicit AccuracyStudy(const SyntheticSpec &task = defaultTask());

    const DatasetPair &data() const { return data_; }

    /** Train one fresh net per entry of @p noises, in that order. */
    std::vector<StudyRun>
    trainRuns(const std::vector<NoiseSpec> &noises) const;

    /** evaluate() @p net on the test set under each of @p options. */
    std::vector<double>
    evaluateAll(Sequential &net,
                const std::vector<EvalOptions> &options) const;

  private:
    SyntheticSpec task_;
    DatasetPair data_;
};

} // namespace nn
} // namespace inca

#endif // INCA_NN_TRAINER_HH
