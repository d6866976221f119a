#include "nn/trainer.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "tensor/ops.hh"

namespace inca {
namespace nn {

TrainResult
train(Sequential &net, const DatasetPair &data, const TrainConfig &config)
{
    Rng rng(config.seed);
    Dataset trainSet = data.train;

    TrainResult result;
    for (int epoch = 0; epoch < config.epochs; ++epoch) {
        trainSet.shuffle(rng);
        double epochLoss = 0.0;
        std::int64_t batches = 0;
        for (std::int64_t begin = 0;
             begin + config.batchSize <= trainSet.count();
             begin += config.batchSize, ++batches) {
            auto [x, labels] = trainSet.batch(begin, config.batchSize);

            ForwardCtx ctx;
            ctx.training = true;
            ctx.noise = config.noise;
            ctx.rng = &rng;
            tensor::Tensor logits = net.forward(x, ctx);

            auto lossRes = tensor::crossEntropy(logits, labels);
            epochLoss += lossRes.loss;
            net.backward(lossRes.grad);
            net.step(config.lr);
        }

        EvalOptions evalOpts;
        evalOpts.noise = config.noise;
        evalOpts.seed = config.seed + std::uint64_t(epoch) + 1;
        const double acc = evaluate(net, data.test, evalOpts);

        result.epochLoss.push_back(epochLoss /
                                   double(std::max<std::int64_t>(1,
                                                                 batches)));
        result.epochTestAccuracy.push_back(acc);
        if (config.verbose) {
            inform("epoch %2d  loss %.4f  test acc %.1f%%", epoch + 1,
                   result.epochLoss.back(), 100.0 * acc);
        }
    }
    result.finalTestAccuracy = result.epochTestAccuracy.empty()
                                   ? 0.0
                                   : result.epochTestAccuracy.back();
    return result;
}

double
evaluate(Sequential &net, const Dataset &test, const EvalOptions &options)
{
    Rng rng(options.seed);
    ForwardCtx ctx;
    ctx.training = false;
    ctx.noise = options.noise;
    ctx.weightBits = options.weightBits;
    ctx.actBits = options.actBits;
    ctx.rng = &rng;

    int correct = 0;
    const std::int64_t batch = 16;
    for (std::int64_t begin = 0; begin < test.count();
         begin += batch) {
        const std::int64_t n = std::min(batch, test.count() - begin);
        auto [x, labels] = test.batch(begin, n);
        tensor::Tensor logits = net.forward(x, ctx);
        correct += tensor::countCorrect(logits, labels);
    }
    return test.count() == 0 ? 0.0 : double(correct) / double(test.count());
}

SyntheticSpec
AccuracyStudy::defaultTask()
{
    SyntheticSpec spec;
    spec.numClasses = 6;
    spec.channels = 1;
    spec.size = 12;
    spec.trainPerClass = 25;
    spec.testPerClass = 15;
    spec.seed = 9;
    spec.pixelNoise = 0.25;
    return spec;
}

AccuracyStudy::AccuracyStudy(const SyntheticSpec &task)
    : task_(task), data_(makeSynthetic(task))
{
}

std::vector<StudyRun>
AccuracyStudy::trainRuns(const std::vector<NoiseSpec> &noises) const
{
    std::vector<StudyRun> runs(noises.size());
    parallel_for_each(std::int64_t(noises.size()), 1, [&](std::int64_t i) {
        Rng rng(33);
        StudyRun &run = runs[size_t(i)];
        run.net = makeSmallResNet(task_.channels, task_.size,
                                  task_.numClasses, 8, rng);
        TrainConfig cfg;
        cfg.epochs = 12;
        cfg.batchSize = 10;
        cfg.lr = 0.02f;
        cfg.noise = noises[size_t(i)];
        run.result = train(*run.net, data_, cfg);
    });
    return runs;
}

std::vector<double>
AccuracyStudy::evaluateAll(Sequential &net,
                           const std::vector<EvalOptions> &options) const
{
    std::vector<double> accuracy(options.size());
    parallel_for_each(std::int64_t(options.size()), 1, [&](std::int64_t i) {
        accuracy[size_t(i)] = evaluate(net, data_.test, options[size_t(i)]);
    });
    return accuracy;
}

} // namespace nn
} // namespace inca
