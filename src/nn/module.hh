/**
 * @file
 * Trainable runtime network modules.
 *
 * A small define-by-composition module system sufficient to train CNNs
 * for the paper's accuracy experiments (Table I quantization sweep,
 * Table VI noise study). Each module caches what it needs in a
 * training forward() -- an inference forward() writes nothing to the
 * module, so concurrent evaluations may share one net -- and returns
 * input gradients from backward(); step() applies vanilla
 * SGD (the paper assumes the vanilla gradient-descent optimizer as the
 * most hardware-friendly choice).
 *
 * Hardware effects are injected through the ForwardCtx: RRAM range
 * noise on weights (WS) or activations (IS), and post-training uniform
 * quantization of weights/activations.
 */

#ifndef INCA_NN_MODULE_HH
#define INCA_NN_MODULE_HH

#include <memory>
#include <string>
#include <vector>

#include "nn/noise.hh"
#include "tensor/ops.hh"
#include "tensor/tensor.hh"

namespace inca {

class Rng;

namespace nn {

/** Per-forward hardware-effect configuration. */
struct ForwardCtx
{
    bool training = false;   ///< caches for backward when true
    NoiseSpec noise;         ///< RRAM noise injection
    int weightBits = 0;      ///< post-training weight quantization (0=off)
    int actBits = 0;         ///< activation quantization (0=off)
    Rng *rng = nullptr;      ///< required when noise is enabled
};

/** Base class of all runtime modules. */
class Module
{
  public:
    virtual ~Module() = default;

    /** Compute the module output for @p x under @p ctx. */
    virtual tensor::Tensor forward(const tensor::Tensor &x,
                                   ForwardCtx &ctx) = 0;

    /** Propagate @p dy; returns d loss / d input. */
    virtual tensor::Tensor backward(const tensor::Tensor &dy) = 0;

    /** Apply one vanilla-SGD step with learning rate @p lr. */
    virtual void step(float lr) { (void)lr; }

    /** Number of trainable parameters. */
    virtual std::int64_t parameterCount() const { return 0; }

    /** Short name for diagnostics. */
    virtual std::string name() const = 0;
};

/** 2-D convolution (no bias; batch-norm-free like the paper's models). */
class Conv2d : public Module
{
  public:
    /**
     * @param inC input channels   @param outC output channels
     * @param k kernel size        @param stride stride
     * @param pad zero padding (-1 selects "same": k/2)
     * @param rng weight-init RNG (He initialization)
     */
    Conv2d(std::int64_t inC, std::int64_t outC, int k, int stride,
           int pad, Rng &rng);

    tensor::Tensor forward(const tensor::Tensor &x,
                           ForwardCtx &ctx) override;
    tensor::Tensor backward(const tensor::Tensor &dy) override;
    void step(float lr) override;
    std::int64_t parameterCount() const override { return w_.size(); }
    std::string name() const override { return "conv2d"; }

    /** Direct access for tests. */
    tensor::Tensor &weights() { return w_; }

  private:
    tensor::Tensor w_;   ///< stored (ideal) kernels [F, C, KH, KW]
    tensor::Tensor dw_;  ///< accumulated kernel gradient
    tensor::Tensor x_;   ///< cached forward input
    tensor::Tensor wEff_; ///< kernels the last training forward used
    tensor::ConvSpec spec_;
    double writeNoiseSigma_ = 0.0; ///< programming noise at step()
    Rng *writeNoiseRng_ = nullptr;
    float clampLimit_ = 0.0f; ///< device conductance saturation
};

/** Depthwise 2-D convolution. */
class DepthwiseConv2d : public Module
{
  public:
    DepthwiseConv2d(std::int64_t channels, int k, int stride, int pad,
                    Rng &rng);

    tensor::Tensor forward(const tensor::Tensor &x,
                           ForwardCtx &ctx) override;
    tensor::Tensor backward(const tensor::Tensor &dy) override;
    void step(float lr) override;
    std::int64_t parameterCount() const override { return w_.size(); }
    std::string name() const override { return "dwconv2d"; }

  private:
    tensor::Tensor w_;    ///< [C, KH, KW]
    tensor::Tensor dw_;
    tensor::Tensor x_;
    tensor::Tensor wEff_;
    tensor::ConvSpec spec_;
    double writeNoiseSigma_ = 0.0;
    Rng *writeNoiseRng_ = nullptr;
    float clampLimit_ = 0.0f;
};

/** Fully connected layer with bias. */
class Linear : public Module
{
  public:
    Linear(std::int64_t inF, std::int64_t outF, Rng &rng);

    tensor::Tensor forward(const tensor::Tensor &x,
                           ForwardCtx &ctx) override;
    tensor::Tensor backward(const tensor::Tensor &dy) override;
    void step(float lr) override;
    std::int64_t parameterCount() const override
    {
        return w_.size() + b_.size();
    }
    std::string name() const override { return "linear"; }

    tensor::Tensor &weights() { return w_; }

  private:
    tensor::Tensor w_; ///< [D, F]
    tensor::Tensor b_; ///< [F]
    tensor::Tensor dw_, db_;
    tensor::Tensor x_;
    tensor::Tensor wEff_;
    double writeNoiseSigma_ = 0.0;
    Rng *writeNoiseRng_ = nullptr;
    float clampLimit_ = 0.0f;
};

/** ReLU activation. */
class ReLU : public Module
{
  public:
    tensor::Tensor forward(const tensor::Tensor &x,
                           ForwardCtx &ctx) override;
    tensor::Tensor backward(const tensor::Tensor &dy) override;
    std::string name() const override { return "relu"; }

  private:
    tensor::Tensor x_;
};

/** Logistic sigmoid activation (paper Section II-B's alternative). */
class Sigmoid : public Module
{
  public:
    tensor::Tensor forward(const tensor::Tensor &x,
                           ForwardCtx &ctx) override;
    tensor::Tensor backward(const tensor::Tensor &dy) override;
    std::string name() const override { return "sigmoid"; }

  private:
    tensor::Tensor y_;
};

/** Hyperbolic-tangent activation. */
class Tanh : public Module
{
  public:
    tensor::Tensor forward(const tensor::Tensor &x,
                           ForwardCtx &ctx) override;
    tensor::Tensor backward(const tensor::Tensor &dy) override;
    std::string name() const override { return "tanh"; }

  private:
    tensor::Tensor y_;
};

/** 2-D max pooling. */
class MaxPool2d : public Module
{
  public:
    explicit MaxPool2d(int k, int stride = 0);

    tensor::Tensor forward(const tensor::Tensor &x,
                           ForwardCtx &ctx) override;
    tensor::Tensor backward(const tensor::Tensor &dy) override;
    std::string name() const override { return "maxpool2d"; }

  private:
    int k_;
    tensor::ConvSpec spec_;
    tensor::Tensor argmax_;
    std::vector<std::int64_t> xShape_;
};

/** Flatten NCHW to [N, C*H*W]. */
class Flatten : public Module
{
  public:
    tensor::Tensor forward(const tensor::Tensor &x,
                           ForwardCtx &ctx) override;
    tensor::Tensor backward(const tensor::Tensor &dy) override;
    std::string name() const override { return "flatten"; }

  private:
    std::vector<std::int64_t> xShape_;
};

/** Sequential container; owns its children. */
class Sequential : public Module
{
  public:
    /** Append a child module; returns *this for chaining. */
    Sequential &append(std::unique_ptr<Module> m);

    /** Convenience: construct a child in place. */
    template <typename M, typename... Args>
    Sequential &
    emplace(Args &&...args)
    {
        return append(std::make_unique<M>(std::forward<Args>(args)...));
    }

    tensor::Tensor forward(const tensor::Tensor &x,
                           ForwardCtx &ctx) override;
    tensor::Tensor backward(const tensor::Tensor &dy) override;
    void step(float lr) override;
    std::int64_t parameterCount() const override;
    std::string name() const override { return "sequential"; }

    /** Number of children. */
    size_t size() const { return children_.size(); }

  private:
    std::vector<std::unique_ptr<Module>> children_;
};

/**
 * Residual block: y = relu(inner(x) + x). The inner path must preserve
 * the input shape (identity skip, as in CIFAR-style basic blocks).
 */
class Residual : public Module
{
  public:
    explicit Residual(std::unique_ptr<Module> inner);

    tensor::Tensor forward(const tensor::Tensor &x,
                           ForwardCtx &ctx) override;
    tensor::Tensor backward(const tensor::Tensor &dy) override;
    void step(float lr) override;
    std::int64_t parameterCount() const override;
    std::string name() const override { return "residual"; }

  private:
    std::unique_ptr<Module> inner_;
    tensor::Tensor sum_; ///< pre-activation sum cached for ReLU grad
};

/**
 * Build the small ResNet-style CNN used by the accuracy experiments:
 * conv3x3(c) - relu - [residual basic block](c) - maxpool -
 * conv3x3(2c) - relu - maxpool - flatten - fc(classes).
 */
std::unique_ptr<Sequential> makeSmallResNet(std::int64_t inChannels,
                                            std::int64_t imageSize,
                                            int numClasses,
                                            std::int64_t baseChannels,
                                            Rng &rng);

} // namespace nn
} // namespace inca

#endif // INCA_NN_MODULE_HH
