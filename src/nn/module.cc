#include "nn/module.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "common/random.hh"

namespace inca {
namespace nn {

using tensor::ConvSpec;
using tensor::Tensor;

namespace {

/** Plain SGD update. */
void
sgdUpdate(Tensor &w, const Tensor &dw, float lr)
{
    for (std::int64_t i = 0; i < w.size(); ++i)
        w[i] -= lr * dw[i];
}

/**
 * Produce the effective parameter tensor for this forward pass: apply
 * weight quantization and, at evaluation time, WS-style RRAM
 * programming noise (deployment writes the weights into nonideal
 * cells). During training the weight-side nonideality instead strikes
 * at every UPDATE (see applyWriteNoise): WS hardware reprograms its
 * weight cells each step and every write adds fresh programming
 * error, so the stored weights accumulate a random walk -- which is
 * why the paper's Table VI shows weight-side noise devastating
 * in-situ training while activation-side noise stays mild.
 */
Tensor
effectiveWeights(const Tensor &w, const ForwardCtx &ctx)
{
    Tensor eff = w;
    if (ctx.weightBits > 0)
        quantizeInPlace(eff, ctx.weightBits);
    if (!ctx.training && ctx.noise.target == NoiseTarget::Weights &&
        ctx.noise.sigma > 0) {
        inca_assert(ctx.rng != nullptr, "noise requires ForwardCtx.rng");
        addRangeNoiseInPlace(eff, ctx.noise.sigma, *ctx.rng);
    }
    return eff;
}

/**
 * RRAM write (programming) noise: each weight update rewrites the
 * cells, and every write perturbs the stored values by the device
 * sigma -- the damage accumulates as a random walk over the training
 * run, which activation-side storage never suffers (activations are
 * consumed immediately after being written).
 */
void
applyWriteNoise(Tensor &w, double sigma, Rng *rng, float clampLimit)
{
    if (sigma <= 0.0 || rng == nullptr)
        return;
    addRangeNoiseInPlace(w, sigma, *rng);
    // Device saturation: a cell's conductance cannot leave its
    // physical on/off window, so the stored values clamp instead of
    // diverging numerically.
    for (std::int64_t i = 0; i < w.size(); ++i)
        w[i] = std::clamp(w[i], -clampLimit, clampLimit);
}

/**
 * Apply IS-style RRAM noise (activations live in RRAM) and activation
 * quantization to a layer output before it is passed on.
 */
void
conditionActivations(Tensor &y, const ForwardCtx &ctx)
{
    if (ctx.actBits > 0)
        quantizeInPlace(y, ctx.actBits);
    if (ctx.noise.target == NoiseTarget::Activations &&
        ctx.noise.sigma > 0) {
        inca_assert(ctx.rng != nullptr, "noise requires ForwardCtx.rng");
        addRangeNoiseInPlace(y, ctx.noise.sigma, *ctx.rng);
    }
}

/** He-normal initialization sigma for a fan-in. */
float
heSigma(std::int64_t fanIn)
{
    return std::sqrt(2.0f / float(fanIn));
}

} // namespace

// ---------------------------------------------------------------------
// Conv2d

Conv2d::Conv2d(std::int64_t inC, std::int64_t outC, int k, int stride,
               int pad, Rng &rng)
{
    if (pad < 0)
        pad = k / 2;
    spec_ = ConvSpec{stride, pad};
    w_ = Tensor::randn({outC, inC, k, k}, rng,
                       heSigma(inC * std::int64_t(k) * k));
    dw_ = Tensor::zeros(w_.shape());
    clampLimit_ = 8.0f * w_.absMax();
}

Tensor
Conv2d::forward(const Tensor &x, ForwardCtx &ctx)
{
    // Only a training forward keeps state for backward(): inference
    // reads the module and writes nothing to it, so concurrent
    // evaluate() calls can share one trained net.
    Tensor wEff = effectiveWeights(w_, ctx);
    Tensor y = tensor::conv2d(x, wEff, spec_);
    if (ctx.training) {
        x_ = x;
        wEff_ = std::move(wEff);
        writeNoiseSigma_ = ctx.noise.target == NoiseTarget::Weights
                               ? ctx.noise.sigma
                               : 0.0;
        writeNoiseRng_ = ctx.rng;
    }
    conditionActivations(y, ctx);
    return y;
}

Tensor
Conv2d::backward(const Tensor &dy)
{
    inca_assert(x_.size() > 0, "backward before training forward");
    dw_ += tensor::conv2dWeightGrad(dy, x_, w_.shape(), spec_);
    return tensor::conv2dInputGrad(dy, wEff_, x_.shape(), spec_);
}

void
Conv2d::step(float lr)
{
    sgdUpdate(w_, dw_, lr);
    dw_.fill(0.0f);
    applyWriteNoise(w_, writeNoiseSigma_, writeNoiseRng_, clampLimit_);
}

// ---------------------------------------------------------------------
// DepthwiseConv2d

DepthwiseConv2d::DepthwiseConv2d(std::int64_t channels, int k, int stride,
                                 int pad, Rng &rng)
{
    if (pad < 0)
        pad = k / 2;
    spec_ = ConvSpec{stride, pad};
    w_ = Tensor::randn({channels, k, k}, rng,
                       heSigma(std::int64_t(k) * k));
    dw_ = Tensor::zeros(w_.shape());
    clampLimit_ = 8.0f * w_.absMax();
}

Tensor
DepthwiseConv2d::forward(const Tensor &x, ForwardCtx &ctx)
{
    Tensor wEff = effectiveWeights(w_, ctx);
    Tensor y = tensor::depthwiseConv2d(x, wEff, spec_);
    if (ctx.training) {
        x_ = x;
        wEff_ = std::move(wEff);
        writeNoiseSigma_ = ctx.noise.target == NoiseTarget::Weights
                               ? ctx.noise.sigma
                               : 0.0;
        writeNoiseRng_ = ctx.rng;
    }
    conditionActivations(y, ctx);
    return y;
}

Tensor
DepthwiseConv2d::backward(const Tensor &dy)
{
    inca_assert(x_.size() > 0, "backward before training forward");
    dw_ += tensor::depthwiseConv2dWeightGrad(dy, x_, w_.shape(), spec_);
    return tensor::depthwiseConv2dInputGrad(dy, wEff_, x_.shape(), spec_);
}

void
DepthwiseConv2d::step(float lr)
{
    sgdUpdate(w_, dw_, lr);
    dw_.fill(0.0f);
    applyWriteNoise(w_, writeNoiseSigma_, writeNoiseRng_, clampLimit_);
}

// ---------------------------------------------------------------------
// Linear

Linear::Linear(std::int64_t inF, std::int64_t outF, Rng &rng)
{
    w_ = Tensor::randn({inF, outF}, rng, heSigma(inF));
    b_ = Tensor::zeros({outF});
    dw_ = Tensor::zeros(w_.shape());
    db_ = Tensor::zeros(b_.shape());
    clampLimit_ = 8.0f * w_.absMax();
}

Tensor
Linear::forward(const Tensor &x, ForwardCtx &ctx)
{
    Tensor wEff = effectiveWeights(w_, ctx);
    Tensor y = tensor::fc(x, wEff, b_);
    if (ctx.training) {
        x_ = x;
        wEff_ = std::move(wEff);
        writeNoiseSigma_ = ctx.noise.target == NoiseTarget::Weights
                               ? ctx.noise.sigma
                               : 0.0;
        writeNoiseRng_ = ctx.rng;
    }
    conditionActivations(y, ctx);
    return y;
}

Tensor
Linear::backward(const Tensor &dy)
{
    inca_assert(x_.size() > 0, "backward before training forward");
    dw_ += tensor::fcWeightGrad(dy, x_);
    db_ += tensor::fcBiasGrad(dy);
    return tensor::fcInputGrad(dy, wEff_);
}

void
Linear::step(float lr)
{
    sgdUpdate(w_, dw_, lr);
    for (std::int64_t i = 0; i < b_.size(); ++i)
        b_[i] -= lr * db_[i];
    dw_.fill(0.0f);
    db_.fill(0.0f);
    applyWriteNoise(w_, writeNoiseSigma_, writeNoiseRng_, clampLimit_);
}

// ---------------------------------------------------------------------
// ReLU

Tensor
ReLU::forward(const Tensor &x, ForwardCtx &ctx)
{
    if (ctx.training)
        x_ = x;
    return tensor::relu(x);
}

Tensor
ReLU::backward(const Tensor &dy)
{
    return tensor::reluGrad(dy, x_);
}

// ---------------------------------------------------------------------
// Sigmoid

Tensor
Sigmoid::forward(const Tensor &x, ForwardCtx &ctx)
{
    Tensor y = tensor::sigmoid(x);
    if (ctx.training)
        y_ = y;
    return y;
}

Tensor
Sigmoid::backward(const Tensor &dy)
{
    return tensor::sigmoidGrad(dy, y_);
}

// ---------------------------------------------------------------------
// Tanh

Tensor
Tanh::forward(const Tensor &x, ForwardCtx &ctx)
{
    Tensor y = tensor::tanhAct(x);
    if (ctx.training)
        y_ = y;
    return y;
}

Tensor
Tanh::backward(const Tensor &dy)
{
    return tensor::tanhGrad(dy, y_);
}

// ---------------------------------------------------------------------
// MaxPool2d

MaxPool2d::MaxPool2d(int k, int stride) : k_(k)
{
    spec_ = ConvSpec{stride == 0 ? k : stride, 0};
}

Tensor
MaxPool2d::forward(const Tensor &x, ForwardCtx &ctx)
{
    auto res = tensor::maxPool2d(x, k_, spec_);
    if (ctx.training) {
        argmax_ = res.argmax;
        xShape_ = x.shape();
    }
    return res.output;
}

Tensor
MaxPool2d::backward(const Tensor &dy)
{
    return tensor::maxPool2dGrad(dy, argmax_, xShape_, k_, spec_);
}

// ---------------------------------------------------------------------
// Flatten

Tensor
Flatten::forward(const Tensor &x, ForwardCtx &ctx)
{
    if (ctx.training)
        xShape_ = x.shape();
    const std::int64_t n = x.dim(0);
    return x.reshaped({n, x.size() / n});
}

Tensor
Flatten::backward(const Tensor &dy)
{
    return dy.reshaped(xShape_);
}

// ---------------------------------------------------------------------
// Sequential

Sequential &
Sequential::append(std::unique_ptr<Module> m)
{
    children_.push_back(std::move(m));
    return *this;
}

Tensor
Sequential::forward(const Tensor &x, ForwardCtx &ctx)
{
    Tensor cur = x;
    for (size_t i = 0; i < children_.size(); ++i) {
        // The final layer's outputs (logits) leave the PIM domain for
        // the digital softmax / loss unit, so IS activation noise
        // never strikes them -- only values written back into RRAM
        // are perturbed.
        const bool last = i + 1 == children_.size();
        if (last && ctx.noise.target == NoiseTarget::Activations) {
            ForwardCtx headCtx = ctx;
            headCtx.noise = NoiseSpec{};
            cur = children_[i]->forward(cur, headCtx);
        } else {
            cur = children_[i]->forward(cur, ctx);
        }
    }
    return cur;
}

Tensor
Sequential::backward(const Tensor &dy)
{
    Tensor cur = dy;
    for (auto it = children_.rbegin(); it != children_.rend(); ++it)
        cur = (*it)->backward(cur);
    return cur;
}

void
Sequential::step(float lr)
{
    for (auto &child : children_)
        child->step(lr);
}

std::int64_t
Sequential::parameterCount() const
{
    std::int64_t total = 0;
    for (const auto &child : children_)
        total += child->parameterCount();
    return total;
}

// ---------------------------------------------------------------------
// Residual

Residual::Residual(std::unique_ptr<Module> inner)
    : inner_(std::move(inner))
{
}

Tensor
Residual::forward(const Tensor &x, ForwardCtx &ctx)
{
    Tensor y = inner_->forward(x, ctx);
    y += x;
    if (ctx.training)
        sum_ = y;
    return tensor::relu(y);
}

Tensor
Residual::backward(const Tensor &dy)
{
    Tensor dSum = tensor::reluGrad(dy, sum_);
    Tensor dx = inner_->backward(dSum);
    dx += dSum;
    return dx;
}

void
Residual::step(float lr)
{
    inner_->step(lr);
}

std::int64_t
Residual::parameterCount() const
{
    return inner_->parameterCount();
}

// ---------------------------------------------------------------------

std::unique_ptr<Sequential>
makeSmallResNet(std::int64_t inChannels, std::int64_t imageSize,
                int numClasses, std::int64_t baseChannels, Rng &rng)
{
    const std::int64_t c = baseChannels;
    auto net = std::make_unique<Sequential>();
    net->emplace<Conv2d>(inChannels, c, 3, 1, 1, rng);
    net->emplace<ReLU>();

    auto blockInner = std::make_unique<Sequential>();
    blockInner->emplace<Conv2d>(c, c, 3, 1, 1, rng);
    blockInner->emplace<ReLU>();
    blockInner->emplace<Conv2d>(c, c, 3, 1, 1, rng);
    net->append(std::make_unique<Residual>(std::move(blockInner)));

    net->emplace<MaxPool2d>(2);
    net->emplace<Conv2d>(c, 2 * c, 3, 1, 1, rng);
    net->emplace<ReLU>();
    net->emplace<MaxPool2d>(2);
    net->emplace<Flatten>();
    const std::int64_t flat = 2 * c * (imageSize / 4) * (imageSize / 4);
    net->emplace<Linear>(flat, numClasses, rng);
    return net;
}

} // namespace nn
} // namespace inca
