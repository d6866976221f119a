/**
 * @file
 * Differential tests for the im2col convolution paths.
 *
 * conv2d(), conv2dInputGrad() and conv2dWeightGrad() are the
 * production im2col + blocked-GEMM implementations. Their contract is
 * exact: every output element is accumulated in the same serial order
 * as the naive scalar loops, so the results must match conv2dNaive()
 * and the *GradNaive() references bit-for-bit (0 ULP). These tests
 * sweep ~20 randomized shapes -- odd strides, asymmetric kernels,
 * heavy padding, batch 1 and 7.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "tensor/ops.hh"

namespace inca {
namespace tensor {
namespace {

struct ConvCase
{
    std::int64_t n, c, f, h, w;
    int kh, kw, stride, pad;

    std::string
    label() const
    {
        return "n" + std::to_string(n) + "c" + std::to_string(c) +
               "f" + std::to_string(f) + "_" + std::to_string(h) +
               "x" + std::to_string(w) + "_k" + std::to_string(kh) +
               "x" + std::to_string(kw) + "s" +
               std::to_string(stride) + "p" + std::to_string(pad);
    }
};

/**
 * The shape sweep. Deliberately adversarial: strides 1/2/3, kh != kw,
 * even kernels, pad up to k (which exercises the input-grad fallback
 * path for pad > k-1), kernels as large as the padded input, and the
 * batch sizes 1 and 7 the chunking logic splits unevenly.
 */
const std::vector<ConvCase> kCases = {
    {1, 1, 1, 5, 5, 3, 3, 1, 0},   // minimal
    {1, 3, 4, 8, 8, 3, 3, 1, 1},   // the common 3x3 same-pad
    {7, 2, 3, 9, 7, 3, 3, 2, 1},   // odd batch, non-square input
    {1, 4, 2, 6, 6, 3, 3, 2, 1},   // stride-2 with output overhang
    {7, 3, 5, 11, 11, 5, 5, 2, 2}, // 5x5 stride 2
    {1, 2, 2, 8, 6, 1, 3, 1, 0},   // 1x3 asymmetric kernel
    {2, 3, 4, 7, 9, 3, 1, 1, 0},   // 3x1 asymmetric kernel
    {7, 1, 6, 10, 10, 4, 4, 2, 0}, // even kernel
    {1, 5, 3, 12, 12, 3, 3, 3, 1}, // stride 3
    {2, 2, 2, 13, 9, 5, 3, 3, 2},  // stride 3, kh != kw
    {1, 3, 3, 6, 6, 2, 2, 1, 2},   // pad > k-1 (input-grad fallback)
    {7, 2, 4, 5, 5, 3, 3, 1, 2},   // pad = k-1, asymmetric overhang
    {1, 6, 8, 14, 14, 3, 3, 2, 1}, // wider channels
    {3, 4, 4, 8, 8, 3, 3, 2, 0},   // no padding, stride 2
    {1, 1, 2, 7, 7, 7, 7, 1, 3},   // kernel spans the padded input
    {2, 3, 2, 10, 8, 5, 5, 2, 2},  // 5x5 on non-square input
    {7, 4, 1, 9, 9, 3, 3, 2, 2},   // single filter, odd batch
    {1, 2, 5, 15, 11, 3, 5, 2, 1}, // 3x5 asymmetric kernel
    {2, 1, 3, 6, 10, 3, 3, 1, 1},  // wide input
    {1, 3, 4, 8, 8, 4, 2, 2, 1},   // 4x2 even asymmetric kernel
};

TEST(ParallelOps, ForwardMatchesNaiveExactly)
{
    for (const auto &cs : kCases) {
        SCOPED_TRACE(cs.label());
        Rng rng(1000 + cs.n + 31 * cs.h + 7 * cs.kh);
        const Tensor x = Tensor::randn({cs.n, cs.c, cs.h, cs.w}, rng);
        const Tensor w =
            Tensor::randn({cs.f, cs.c, cs.kh, cs.kw}, rng);
        const ConvSpec spec{cs.stride, cs.pad};

        EXPECT_TRUE(conv2d(x, w, spec).equals(conv2dNaive(x, w, spec)));
    }
}

TEST(ParallelOps, InputGradMatchesNaiveExactly)
{
    for (const auto &cs : kCases) {
        SCOPED_TRACE(cs.label());
        Rng rng(2000 + cs.c + 13 * cs.w + 5 * cs.kw);
        const Tensor x = Tensor::randn({cs.n, cs.c, cs.h, cs.w}, rng);
        const Tensor w =
            Tensor::randn({cs.f, cs.c, cs.kh, cs.kw}, rng);
        const ConvSpec spec{cs.stride, cs.pad};
        const std::int64_t oh = convOutDim(cs.h, cs.kh, spec);
        const std::int64_t ow = convOutDim(cs.w, cs.kw, spec);
        const Tensor dy = Tensor::randn({cs.n, cs.f, oh, ow}, rng);

        EXPECT_TRUE(conv2dInputGrad(dy, w, x.shape(), spec)
                        .equals(conv2dInputGradNaive(dy, w, x.shape(),
                                                     spec)));
    }
}

TEST(ParallelOps, WeightGradMatchesNaiveExactly)
{
    for (const auto &cs : kCases) {
        SCOPED_TRACE(cs.label());
        Rng rng(3000 + cs.f + 17 * cs.h + 3 * cs.stride);
        const Tensor x = Tensor::randn({cs.n, cs.c, cs.h, cs.w}, rng);
        const Tensor w =
            Tensor::randn({cs.f, cs.c, cs.kh, cs.kw}, rng);
        const ConvSpec spec{cs.stride, cs.pad};
        const std::int64_t oh = convOutDim(cs.h, cs.kh, spec);
        const std::int64_t ow = convOutDim(cs.w, cs.kw, spec);
        const Tensor dy = Tensor::randn({cs.n, cs.f, oh, ow}, rng);

        EXPECT_TRUE(conv2dWeightGrad(dy, x, w.shape(), spec)
                        .equals(conv2dWeightGradNaive(dy, x, w.shape(),
                                                      spec)));
    }
}

/** Matmul's blocked kernel must also be order-exact. */
TEST(ParallelOps, MatmulMatchesNaiveExactly)
{
    Rng rng(4000);
    const Tensor a = Tensor::randn({37, 53}, rng);
    const Tensor b = Tensor::randn({53, 29}, rng);

    // Reference: the plain ascending-k accumulation order.
    Tensor ref({37, 29});
    for (std::int64_t i = 0; i < 37; ++i) {
        for (std::int64_t j = 0; j < 29; ++j) {
            float acc = 0.0f;
            for (std::int64_t k = 0; k < 53; ++k)
                acc += a[i * 53 + k] * b[k * 29 + j];
            ref[i * 29 + j] = acc;
        }
    }
    EXPECT_TRUE(matmul(a, b).equals(ref));
}

/**
 * A depthwise convolution is a dense one whose kernels are zero off
 * the channel diagonal. Those zero taps add exact zeros in between
 * the diagonal ones, so the dense naive loops are a 0-ULP reference
 * for the depthwise ops and their gradients.
 */
TEST(ParallelOps, DepthwiseMatchesDenseNaiveExactly)
{
    Rng rng(5000);
    const Tensor x = Tensor::randn({7, 5, 9, 9}, rng);
    const Tensor w = Tensor::randn({5, 3, 3}, rng);
    const ConvSpec spec{2, 1};
    const std::int64_t od = convOutDim(9, 3, spec);
    const Tensor dy = Tensor::randn({7, 5, od, od}, rng);

    Tensor dense({5, 5, 3, 3});
    for (std::int64_t c = 0; c < 5; ++c)
        for (std::int64_t k = 0; k < 9; ++k)
            dense[(c * 5 + c) * 9 + k] = w[c * 9 + k];

    EXPECT_TRUE(depthwiseConv2d(x, w, spec)
                    .equals(conv2dNaive(x, dense, spec)));
    EXPECT_TRUE(depthwiseConv2dInputGrad(dy, w, x.shape(), spec)
                    .equals(conv2dInputGradNaive(dy, dense, x.shape(),
                                                 spec)));
    const Tensor denseDw =
        conv2dWeightGradNaive(dy, x, dense.shape(), spec);
    Tensor diagonal({5, 3, 3});
    for (std::int64_t c = 0; c < 5; ++c)
        for (std::int64_t k = 0; k < 9; ++k)
            diagonal[c * 9 + k] = denseDw[(c * 5 + c) * 9 + k];
    EXPECT_TRUE(depthwiseConv2dWeightGrad(dy, x, w.shape(), spec)
                    .equals(diagonal));
}

} // namespace
} // namespace tensor
} // namespace inca
