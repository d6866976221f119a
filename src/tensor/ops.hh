/**
 * @file
 * Neural-network math on dense tensors.
 *
 * Two convolution paths are provided on purpose:
 *  - conv2d(): the production path -- im2col packing + a cache-blocked
 *    GEMM kernel. That is the unrolled dataflow weight-stationary
 *    crossbar accelerators (the paper's baseline) execute;
 *  - conv2dNaive() (and the *GradNaive() variants): the direct
 *    scalar-loop convolution, the dataflow INCA's 2T1R planes execute
 *    in hardware, kept as the differential-testing reference.
 * The tests require both paths to agree bit-for-bit, which is the
 * software analogue of the paper's claim that direct convolution
 * preserves the mathematical result without unrolling.
 *
 * Determinism contract: every element of every output is accumulated
 * in a fixed serial order (ascending im2col column order, which is
 * exactly the naive loops' accumulation order), whatever kernel ISA
 * runs it. The ops run serially on the calling thread and touch no
 * shared state, so independent calls may run concurrently; the
 * accuracy studies fan out whole training runs instead
 * (nn/trainer.hh).
 *
 * Layouts: activations NCHW; convolution weights (F out, C in, KH, KW);
 * depthwise weights (C, KH, KW); FC weights (D in, F out).
 */

#ifndef INCA_TENSOR_OPS_HH
#define INCA_TENSOR_OPS_HH

#include <cstdint>
#include <utility>

#include "tensor/tensor.hh"

namespace inca {
namespace tensor {

/** Spatial parameters of a convolution / pooling window. */
struct ConvSpec
{
    int stride = 1; ///< Stride in both spatial dimensions.
    int pad = 0;    ///< Zero padding on each spatial border.
};

/** Output spatial size for a window of size @p k over @p in elements. */
std::int64_t convOutDim(std::int64_t in, int k, const ConvSpec &spec);

/**
 * 2-D convolution (cross-correlation as in DNN frameworks), computed
 * via im2col + blocked GEMM. Bit-identical to conv2dNaive().
 *
 * @param x input activations [N, C, H, W]
 * @param w kernels [F, C, KH, KW]
 * @param spec stride / padding
 * @return output [N, F, OH, OW]
 */
Tensor conv2d(const Tensor &x, const Tensor &w, const ConvSpec &spec = {});

/** Gradient of conv2d w.r.t. its input ("transposed kernel" conv). */
Tensor conv2dInputGrad(const Tensor &dy, const Tensor &w,
                       const std::vector<std::int64_t> &xShape,
                       const ConvSpec &spec = {});

/** Gradient of conv2d w.r.t. its kernels (input * error convolution). */
Tensor conv2dWeightGrad(const Tensor &dy, const Tensor &x,
                        const std::vector<std::int64_t> &wShape,
                        const ConvSpec &spec = {});

/**
 * Reference implementations: the 6-deep scalar loops,
 * exactly the arithmetic INCA's planes execute in hardware. The
 * differential tests require the production paths above to match
 * these bit-for-bit.
 */
Tensor conv2dNaive(const Tensor &x, const Tensor &w,
                   const ConvSpec &spec = {});

/** Reference input gradient (scalar scatter loops). */
Tensor conv2dInputGradNaive(const Tensor &dy, const Tensor &w,
                            const std::vector<std::int64_t> &xShape,
                            const ConvSpec &spec = {});

/** Reference weight gradient (scalar scatter loops). */
Tensor conv2dWeightGradNaive(const Tensor &dy, const Tensor &x,
                             const std::vector<std::int64_t> &wShape,
                             const ConvSpec &spec = {});

/**
 * Depthwise 2-D convolution: channel c of the output depends only on
 * channel c of the input (no cross-channel accumulation).
 *
 * @param x input [N, C, H, W]
 * @param w kernels [C, KH, KW]
 */
Tensor depthwiseConv2d(const Tensor &x, const Tensor &w,
                       const ConvSpec &spec = {});

/** Gradient of depthwiseConv2d w.r.t. its input. */
Tensor depthwiseConv2dInputGrad(const Tensor &dy, const Tensor &w,
                                const std::vector<std::int64_t> &xShape,
                                const ConvSpec &spec = {});

/** Gradient of depthwiseConv2d w.r.t. its kernels. */
Tensor depthwiseConv2dWeightGrad(const Tensor &dy, const Tensor &x,
                                 const std::vector<std::int64_t> &wShape,
                                 const ConvSpec &spec = {});

/** Dense matrix product: [M, K] x [K, N] -> [M, N]. */
Tensor matmul(const Tensor &a, const Tensor &b);

/** Transpose of a rank-2 tensor. */
Tensor transpose(const Tensor &a);

/**
 * Unroll convolution windows into rows (im2col).
 *
 * @return [N * OH * OW, C * KH * KW]
 */
Tensor im2col(const Tensor &x, int kh, int kw, const ConvSpec &spec = {});

/** Fully connected layer: [N, D] x [D, F] + bias[F] -> [N, F]. */
Tensor fc(const Tensor &x, const Tensor &w, const Tensor &bias);

/** FC gradient w.r.t. input. */
Tensor fcInputGrad(const Tensor &dy, const Tensor &w);

/** FC gradient w.r.t. weights. */
Tensor fcWeightGrad(const Tensor &dy, const Tensor &x);

/** FC gradient w.r.t. bias (column sums of dy). */
Tensor fcBiasGrad(const Tensor &dy);

/** Elementwise max(0, x). */
Tensor relu(const Tensor &x);

/** ReLU backward: dy masked by x > 0. */
Tensor reluGrad(const Tensor &dy, const Tensor &x);

/** Elementwise logistic sigmoid. */
Tensor sigmoid(const Tensor &x);

/** Sigmoid backward given the forward OUTPUT y: dy * y * (1 - y). */
Tensor sigmoidGrad(const Tensor &dy, const Tensor &y);

/** Elementwise hyperbolic tangent. */
Tensor tanhAct(const Tensor &x);

/** Tanh backward given the forward OUTPUT y: dy * (1 - y^2). */
Tensor tanhGrad(const Tensor &dy, const Tensor &y);

/** Result of a max-pool forward pass. */
struct PoolResult
{
    Tensor output;  ///< pooled values [N, C, OH, OW]
    Tensor argmax;  ///< flat spatial index of each max, same shape
};

/** 2-D max pooling with a k x k window. */
PoolResult maxPool2d(const Tensor &x, int k, const ConvSpec &spec);

/** Max-pool backward: route dy to the recorded argmax positions. */
Tensor maxPool2dGrad(const Tensor &dy, const Tensor &argmax,
                     const std::vector<std::int64_t> &xShape, int k,
                     const ConvSpec &spec);

/** Global average pooling: [N, C, H, W] -> [N, C]. */
Tensor globalAvgPool(const Tensor &x);

/** Global-average-pool backward. */
Tensor globalAvgPoolGrad(const Tensor &dy,
                         const std::vector<std::int64_t> &xShape);

/** Row-wise softmax of [N, F] logits. */
Tensor softmax(const Tensor &logits);

/** Loss value + logits gradient of softmax cross-entropy. */
struct LossResult
{
    double loss = 0.0; ///< mean loss over the batch
    Tensor grad;       ///< d loss / d logits, [N, F]
};

/**
 * Mean softmax cross-entropy over a batch.
 *
 * @param logits [N, F]
 * @param labels class index per row, length N
 */
LossResult crossEntropy(const Tensor &logits,
                        const std::vector<int> &labels);

/**
 * Mean L2 loss over a batch against one-hot targets -- the loss the
 * paper describes INCA's backward pass with (Eq. 3: delta_L =
 * y_target - y_pred up to sign/scale).
 *
 * @param outputs [N, F] predictions
 * @param labels class index per row, length N
 */
LossResult l2Loss(const Tensor &outputs, const std::vector<int> &labels);

/** Number of rows whose arg-max equals the label. */
int countCorrect(const Tensor &logits, const std::vector<int> &labels);

} // namespace tensor
} // namespace inca

#endif // INCA_TENSOR_OPS_HH
