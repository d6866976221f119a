/**
 * @file
 * End-to-end functional verification of the INCA array model: the
 * bit-level 3D 2T1R simulation (partitioning, halos, bit-serial
 * weights, per-plane ADC, adder tree) must reproduce the mathematical
 * direct convolution exactly for the paper's 3x3 regime, including
 * the training-path primitives.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "inca/functional.hh"
#include "tensor/ops.hh"

namespace inca {
namespace core {
namespace {

using tensor::ConvSpec;
using tensor::Tensor;

Tensor
randomUnsigned(std::vector<std::int64_t> shape, int bits, Rng &rng)
{
    Tensor t(std::move(shape));
    for (std::int64_t i = 0; i < t.size(); ++i)
        t[i] = float(rng.below(1u << bits));
    return t;
}

Tensor
randomSigned(std::vector<std::int64_t> shape, int bits, Rng &rng)
{
    Tensor t(std::move(shape));
    const int span = 1 << bits;
    for (std::int64_t i = 0; i < t.size(); ++i)
        t[i] = float(std::int64_t(rng.below(std::uint64_t(span))) -
                     (span / 2));
    return t;
}

struct FunctionalCase
{
    int b, c, h, f, k, stride, pad;
};

class IncaConvEquivalence
    : public ::testing::TestWithParam<FunctionalCase>
{
};

TEST_P(IncaConvEquivalence, MatchesTensorReference)
{
    const auto p = GetParam();
    Rng rng(77);
    Tensor x = randomUnsigned({p.b, p.c, p.h, p.h}, 8, rng);
    Tensor w = randomSigned({p.f, p.c, p.k, p.k}, 8, rng);

    FunctionalOptions opts;
    opts.planeSize = 8; // force multi-partition mappings in tests
    opts.planes = 8;
    IncaFunctional array(opts);

    const ConvSpec spec{p.stride, p.pad};
    Tensor hw = array.conv2d(x, w, spec);
    Tensor ref = tensor::conv2d(x, w, spec);
    EXPECT_TRUE(hw.equals(ref))
        << "array direct convolution diverged from math";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncaConvEquivalence,
    ::testing::Values(
        FunctionalCase{1, 1, 6, 1, 3, 1, 1},   // single partition
        FunctionalCase{2, 3, 10, 4, 3, 1, 1},  // halo across tiles
        FunctionalCase{1, 2, 16, 2, 3, 1, 1},  // 2x2 partitions
        FunctionalCase{3, 2, 9, 2, 3, 2, 1},   // strided
        FunctionalCase{1, 4, 8, 3, 1, 1, 0},   // pointwise
        FunctionalCase{2, 1, 12, 2, 3, 1, 0},  // no padding
        FunctionalCase{1, 3, 7, 2, 2, 1, 0},   // even kernel
        FunctionalCase{4, 2, 8, 2, 3, 1, 1},   // batch on planes
        // The reference is im2col + GEMM, so every case also checks
        // that IS direct convolution computes what WS unrolling does.
        FunctionalCase{1, 2, 8, 3, 3, 1, 1})); // three filters

TEST(IncaFunctional, DepthwiseMatchesReference)
{
    Rng rng(78);
    Tensor x = randomUnsigned({2, 4, 10, 10}, 8, rng);
    Tensor w = randomSigned({4, 3, 3}, 8, rng);
    FunctionalOptions opts;
    opts.planeSize = 8;
    IncaFunctional array(opts);
    Tensor hw = array.depthwiseConv2d(x, w, {1, 1});
    Tensor ref = tensor::depthwiseConv2d(x, w, {1, 1});
    EXPECT_TRUE(hw.equals(ref));
}

TEST(IncaFunctional, HaloWindowsSpanPartitions)
{
    // Input 12x12 on 8x8 planes: windows crossing the tile boundary
    // at row/col 8 must assemble from up to four partial sums.
    Rng rng(79);
    Tensor x = randomUnsigned({1, 1, 12, 12}, 8, rng);
    Tensor w = randomSigned({1, 1, 3, 3}, 8, rng);
    FunctionalOptions opts;
    opts.planeSize = 8;
    IncaFunctional array(opts);
    Tensor hw = array.conv2d(x, w, {1, 1});
    Tensor ref = tensor::conv2d(x, w, {1, 1});
    // Check the boundary band explicitly.
    for (std::int64_t r = 6; r < 10; ++r)
        for (std::int64_t c = 6; c < 10; ++c)
            EXPECT_EQ(hw.at(0, 0, r, c), ref.at(0, 0, r, c))
                << "halo mismatch at " << r << "," << c;
    EXPECT_TRUE(hw.equals(ref));
}

TEST(IncaFunctional, ErrorBackpropMatchesInputGrad)
{
    // The backward pass: errors convolved with transposed kernels on
    // the array == conv2dInputGrad. Errors are signed (stored in
    // two's complement over the overwritten activation cells).
    Rng rng(81);
    const int pad = 1;
    Tensor dy = randomSigned({2, 3, 8, 8}, 6, rng);
    Tensor w = randomSigned({3, 2, 3, 3}, 8, rng);
    IncaFunctional array({8, 8, 8, 8, 4});
    Tensor hw = array.errorBackprop(dy, w, pad);
    Tensor ref = tensor::conv2dInputGrad(dy, w, {2, 2, 8, 8},
                                         {1, pad});
    EXPECT_TRUE(hw.equals(ref));
}

TEST(IncaFunctional, ErrorBackpropNoPadding)
{
    Rng rng(82);
    Tensor dy = randomSigned({1, 2, 6, 6}, 6, rng);
    Tensor w = randomSigned({2, 1, 3, 3}, 8, rng);
    IncaFunctional array({8, 8, 8, 8, 4});
    Tensor hw = array.errorBackprop(dy, w, 0);
    Tensor ref = tensor::conv2dInputGrad(dy, w, {1, 1, 8, 8}, {1, 0});
    EXPECT_TRUE(hw.equals(ref));
}

TEST(IncaFunctional, WeightGradientMatchesReference)
{
    // Eq. 4's delta * x computed with the errors sliding as the
    // kernel over the stored activations. Larger error windows exceed
    // the 4-bit code range, so the gradient path uses the macro with
    // a wider conversion (the test uses 8 bits, enough for the 4x4
    // error map of this case).
    Rng rng(83);
    Tensor x = randomUnsigned({2, 2, 6, 6}, 4, rng);
    Tensor dy = randomSigned({2, 3, 4, 4}, 4, rng);
    FunctionalOptions opts;
    opts.planeSize = 8;
    opts.planes = 4;
    opts.activationBits = 4;
    opts.weightBits = 8;
    opts.adcBits = 8;
    IncaFunctional array(opts);
    Tensor hw = array.weightGradient(x, dy, 0);
    Tensor ref =
        tensor::conv2dWeightGrad(dy, x, {3, 2, 3, 3}, {1, 0});
    EXPECT_TRUE(hw.equals(ref));
}

TEST(IncaFunctional, WeightGradientWithPadding)
{
    Rng rng(84);
    Tensor x = randomUnsigned({1, 1, 5, 5}, 4, rng);
    Tensor dy = randomSigned({1, 1, 5, 5}, 3, rng);
    FunctionalOptions opts;
    opts.planeSize = 8;
    opts.planes = 2;
    opts.activationBits = 4;
    opts.adcBits = 10;
    IncaFunctional array(opts);
    Tensor hw = array.weightGradient(x, dy, 1);
    Tensor ref =
        tensor::conv2dWeightGrad(dy, x, {1, 1, 3, 3}, {1, 1});
    EXPECT_TRUE(hw.equals(ref));
}

TEST(IncaFunctional, FourBitAdcClipsFiveByFiveKernels)
{
    // With 5x5 kernels (MNasNet) a 4-bit ADC can saturate; an 8-bit
    // conversion restores exactness. This documents the design
    // boundary of the paper's "4-bit is sufficient for 3x3".
    Rng rng(85);
    Tensor x = Tensor::full({1, 1, 8, 8}, 255.0f);
    Tensor w = Tensor::full({1, 1, 5, 5}, 63.0f);
    IncaFunctional clip({8, 2, 8, 8, 4});
    IncaFunctional wide({8, 2, 8, 8, 8});
    Tensor ref = tensor::conv2d(x, w, {1, 0});
    Tensor clipped = clip.conv2d(x, w, {1, 0});
    Tensor exact = wide.conv2d(x, w, {1, 0});
    EXPECT_TRUE(exact.equals(ref));
    EXPECT_LT(clipped.at(0, 0, 2, 2), ref.at(0, 0, 2, 2));
}

TEST(IncaFunctional, QuantizeHelpers)
{
    Tensor t({4}, {-1.0f, -0.5f, 0.5f, 1.0f});
    Tensor u = quantizeUnsigned(t, 8, 255.0f);
    EXPECT_FLOAT_EQ(u[0], 0.0f);
    EXPECT_FLOAT_EQ(u[3], 255.0f);
    Tensor s = quantizeSigned(t, 8, 127.0f);
    EXPECT_FLOAT_EQ(s[0], -127.0f);
    EXPECT_FLOAT_EQ(s[3], 127.0f);
    // Signed clamps at -2^(b-1).
    Tensor big({1}, {-2.0f});
    EXPECT_FLOAT_EQ(quantizeSigned(big, 8, 127.0f)[0], -128.0f);
}

TEST(IncaFunctionalDeath, BatchBeyondPlanesPanics)
{
    Rng rng(86);
    Tensor x = randomUnsigned({9, 1, 4, 4}, 8, rng);
    Tensor w = randomSigned({1, 1, 3, 3}, 8, rng);
    IncaFunctional array({8, 8, 8, 8, 4});
    EXPECT_DEATH(array.conv2d(x, w, {1, 1}), "planes");
}

TEST(IncaFunctionalDeath, NonIntegerInputPanics)
{
    Tensor x = Tensor::full({1, 1, 4, 4}, 0.5f);
    Tensor w = Tensor::full({1, 1, 3, 3}, 1.0f);
    IncaFunctional array({8, 8, 8, 8, 4});
    EXPECT_DEATH(array.conv2d(x, w, {1, 1}), "integer");
}

} // namespace
} // namespace core
} // namespace inca
