/**
 * @file
 * Neural-network math tests: convolution correctness, GEMM-path
 * equivalence (the WS unrolled dataflow must compute the same function
 * as direct convolution), analytic gradients versus numerical
 * differentiation, pooling, activations and losses.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/random.hh"
#include "tensor/ops.hh"

namespace inca {
namespace tensor {
namespace {

/** Central-difference numerical gradient of a scalar function. */
Tensor
numericalGrad(Tensor &x, const std::function<double()> &f,
              float eps = 1e-3f)
{
    Tensor g(x.shape());
    for (std::int64_t i = 0; i < x.size(); ++i) {
        const float orig = x[i];
        x[i] = orig + eps;
        const double plus = f();
        x[i] = orig - eps;
        const double minus = f();
        x[i] = orig;
        g[i] = float((plus - minus) / (2.0 * eps));
    }
    return g;
}

double
weightedSum(const Tensor &y, const Tensor &coeff)
{
    double s = 0.0;
    for (std::int64_t i = 0; i < y.size(); ++i)
        s += double(y[i]) * double(coeff[i]);
    return s;
}

TEST(ConvOutDim, Formula)
{
    EXPECT_EQ(convOutDim(224, 3, {1, 1}), 224);
    EXPECT_EQ(convOutDim(224, 7, {2, 3}), 112);
    EXPECT_EQ(convOutDim(32, 5, {1, 0}), 28);
    EXPECT_EQ(convOutDim(4, 2, {2, 0}), 2);
}

TEST(Conv2d, HandComputedSingleChannel)
{
    // 3x3 input, 2x2 kernel, no padding.
    Tensor x({1, 1, 3, 3},
             {1, 2, 3,
              4, 5, 6,
              7, 8, 9});
    Tensor w({1, 1, 2, 2}, {1, 0, 0, 1});
    Tensor y = conv2d(x, w);
    ASSERT_EQ(y.shape(), (std::vector<std::int64_t>{1, 1, 2, 2}));
    EXPECT_EQ(y.at(0, 0, 0, 0), 1 + 5);
    EXPECT_EQ(y.at(0, 0, 0, 1), 2 + 6);
    EXPECT_EQ(y.at(0, 0, 1, 0), 4 + 8);
    EXPECT_EQ(y.at(0, 0, 1, 1), 5 + 9);
}

TEST(Conv2d, IdentityKernelWithSamePadding)
{
    Rng rng(1);
    Tensor x = Tensor::randn({2, 3, 5, 5}, rng);
    // 3x3 kernel that picks the center of channel 1 only.
    Tensor w({1, 3, 3, 3});
    w.at(0, 1, 1, 1) = 1.0f;
    Tensor y = conv2d(x, w, {1, 1});
    for (std::int64_t n = 0; n < 2; ++n)
        for (std::int64_t r = 0; r < 5; ++r)
            for (std::int64_t c = 0; c < 5; ++c)
                EXPECT_FLOAT_EQ(y.at(n, 0, r, c), x.at(n, 1, r, c));
}

TEST(Conv2d, ChannelAccumulation)
{
    // All-ones input and kernel: every output equals C * KH * KW.
    Tensor x = Tensor::full({1, 4, 4, 4}, 1.0f);
    Tensor w = Tensor::full({2, 4, 3, 3}, 1.0f);
    Tensor y = conv2d(x, w, {1, 1});
    EXPECT_EQ(y.at(0, 0, 1, 1), 4 * 9);       // interior
    EXPECT_EQ(y.at(0, 1, 0, 0), 4 * 4);       // corner (padding)
}

/** Conv parameter sweep: (C, F, H, K, stride, pad, batch). */
struct ConvCase
{
    int c, f, h, k, stride, pad, batch;
};

class ConvGemmEquivalence : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(ConvGemmEquivalence, GemmMatchesDirect)
{
    const auto p = GetParam();
    Rng rng(31);
    Tensor x = Tensor::randn({p.batch, p.c, p.h, p.h}, rng);
    Tensor w = Tensor::randn({p.f, p.c, p.k, p.k}, rng);
    const ConvSpec spec{p.stride, p.pad};
    // conv2d unrolls into im2col + GEMM, as WS crossbars do;
    // conv2dNaive slides the window directly, as INCA's planes do.
    Tensor gemm = conv2d(x, w, spec);
    Tensor direct = conv2dNaive(x, w, spec);
    EXPECT_TRUE(gemm.equals(direct))
        << "GEMM path diverged from direct convolution";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvGemmEquivalence,
    ::testing::Values(ConvCase{1, 1, 4, 3, 1, 1, 1},
                      ConvCase{3, 8, 8, 3, 1, 1, 2},
                      ConvCase{2, 4, 9, 3, 2, 1, 1},
                      ConvCase{4, 2, 7, 5, 1, 2, 2},
                      ConvCase{1, 6, 6, 1, 1, 0, 3},
                      ConvCase{5, 5, 5, 5, 1, 0, 1},
                      ConvCase{2, 3, 10, 3, 3, 0, 1},
                      ConvCase{8, 8, 4, 3, 1, 1, 1}));

class ConvGradients : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(ConvGradients, InputGradMatchesNumerical)
{
    const auto p = GetParam();
    Rng rng(17);
    Tensor x = Tensor::randn({p.batch, p.c, p.h, p.h}, rng);
    Tensor w = Tensor::randn({p.f, p.c, p.k, p.k}, rng);
    const ConvSpec spec{p.stride, p.pad};
    Tensor y0 = conv2d(x, w, spec);
    Tensor coeff = Tensor::randn(y0.shape(), rng);

    Tensor analytic = conv2dInputGrad(coeff, w, x.shape(), spec);
    Tensor numeric = numericalGrad(
        x, [&] { return weightedSum(conv2d(x, w, spec), coeff); });
    EXPECT_TRUE(analytic.allClose(numeric, 5e-2f));
}

TEST_P(ConvGradients, WeightGradMatchesNumerical)
{
    const auto p = GetParam();
    Rng rng(23);
    Tensor x = Tensor::randn({p.batch, p.c, p.h, p.h}, rng);
    Tensor w = Tensor::randn({p.f, p.c, p.k, p.k}, rng);
    const ConvSpec spec{p.stride, p.pad};
    Tensor y0 = conv2d(x, w, spec);
    Tensor coeff = Tensor::randn(y0.shape(), rng);

    Tensor analytic = conv2dWeightGrad(coeff, x, w.shape(), spec);
    Tensor numeric = numericalGrad(
        w, [&] { return weightedSum(conv2d(x, w, spec), coeff); });
    EXPECT_TRUE(analytic.allClose(numeric, 5e-2f));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvGradients,
    ::testing::Values(ConvCase{2, 3, 5, 3, 1, 1, 2},
                      ConvCase{1, 2, 6, 3, 2, 1, 1},
                      ConvCase{3, 1, 4, 2, 1, 0, 2},
                      ConvCase{2, 2, 5, 1, 1, 0, 1}));

TEST(DepthwiseConv, MatchesPerChannelConv)
{
    Rng rng(41);
    const int c = 4;
    Tensor x = Tensor::randn({2, c, 6, 6}, rng);
    Tensor w = Tensor::randn({c, 3, 3}, rng);
    Tensor y = depthwiseConv2d(x, w, {1, 1});

    // Reference: per-channel regular conv with a single channel.
    for (int ic = 0; ic < c; ++ic) {
        Tensor xc({2, 1, 6, 6});
        for (std::int64_t n = 0; n < 2; ++n)
            for (std::int64_t r = 0; r < 6; ++r)
                for (std::int64_t cl = 0; cl < 6; ++cl)
                    xc.at(n, 0, r, cl) = x.at(n, ic, r, cl);
        Tensor wc({1, 1, 3, 3});
        for (int kr = 0; kr < 3; ++kr)
            for (int kc = 0; kc < 3; ++kc)
                wc.at(0, 0, kr, kc) = w.at(ic, kr, kc);
        Tensor yc = conv2d(xc, wc, {1, 1});
        for (std::int64_t n = 0; n < 2; ++n)
            for (std::int64_t r = 0; r < 6; ++r)
                for (std::int64_t cl = 0; cl < 6; ++cl)
                    EXPECT_FLOAT_EQ(y.at(n, ic, r, cl),
                                    yc.at(n, 0, r, cl));
    }
}

TEST(DepthwiseConv, GradientsMatchNumerical)
{
    Rng rng(43);
    Tensor x = Tensor::randn({1, 3, 5, 5}, rng);
    Tensor w = Tensor::randn({3, 3, 3}, rng);
    const ConvSpec spec{1, 1};
    Tensor coeff = Tensor::randn({1, 3, 5, 5}, rng);

    Tensor dxa = depthwiseConv2dInputGrad(coeff, w, x.shape(), spec);
    Tensor dxn = numericalGrad(x, [&] {
        return weightedSum(depthwiseConv2d(x, w, spec), coeff);
    });
    EXPECT_TRUE(dxa.allClose(dxn, 5e-2f));

    Tensor dwa = depthwiseConv2dWeightGrad(coeff, x, w.shape(), spec);
    Tensor dwn = numericalGrad(w, [&] {
        return weightedSum(depthwiseConv2d(x, w, spec), coeff);
    });
    EXPECT_TRUE(dwa.allClose(dwn, 5e-2f));
}

TEST(Matmul, HandComputed)
{
    Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
    Tensor y = matmul(a, b);
    EXPECT_EQ(y.at(0, 0), 58);
    EXPECT_EQ(y.at(0, 1), 64);
    EXPECT_EQ(y.at(1, 0), 139);
    EXPECT_EQ(y.at(1, 1), 154);
}

TEST(Matmul, TransposeInvolution)
{
    Rng rng(3);
    Tensor a = Tensor::randn({3, 5}, rng);
    EXPECT_TRUE(transpose(transpose(a)).equals(a));
}

TEST(Fc, MatchesMatmulPlusBias)
{
    Rng rng(5);
    Tensor x = Tensor::randn({2, 4}, rng);
    Tensor w = Tensor::randn({4, 3}, rng);
    Tensor b = Tensor::randn({3}, rng);
    Tensor y = fc(x, w, b);
    Tensor ref = matmul(x, w);
    for (std::int64_t i = 0; i < 2; ++i)
        for (std::int64_t j = 0; j < 3; ++j)
            EXPECT_FLOAT_EQ(y.at(i, j), ref.at(i, j) + b[j]);
}

TEST(Fc, GradientsMatchNumerical)
{
    Rng rng(7);
    Tensor x = Tensor::randn({3, 4}, rng);
    Tensor w = Tensor::randn({4, 5}, rng);
    Tensor b = Tensor::randn({5}, rng);
    Tensor coeff = Tensor::randn({3, 5}, rng);

    auto f = [&] { return weightedSum(fc(x, w, b), coeff); };
    EXPECT_TRUE(fcInputGrad(coeff, w).allClose(numericalGrad(x, f),
                                               5e-2f));
    EXPECT_TRUE(fcWeightGrad(coeff, x).allClose(numericalGrad(w, f),
                                                5e-2f));
    EXPECT_TRUE(fcBiasGrad(coeff).allClose(numericalGrad(b, f), 5e-2f));
}

TEST(Relu, ClampsNegatives)
{
    Tensor x({4}, {-2.0f, -0.5f, 0.0f, 3.0f});
    Tensor y = relu(x);
    EXPECT_EQ(y[0], 0.0f);
    EXPECT_EQ(y[1], 0.0f);
    EXPECT_EQ(y[2], 0.0f);
    EXPECT_EQ(y[3], 3.0f);
}

TEST(Relu, GradMasksByInputSign)
{
    Tensor x({3}, {-1.0f, 2.0f, 0.0f});
    Tensor dy({3}, {5.0f, 5.0f, 5.0f});
    Tensor dx = reluGrad(dy, x);
    EXPECT_EQ(dx[0], 0.0f);
    EXPECT_EQ(dx[1], 5.0f);
    EXPECT_EQ(dx[2], 0.0f);
}

TEST(MaxPool, ForwardPicksMaxAndArgmax)
{
    Tensor x({1, 1, 4, 4},
             {1, 2, 5, 3,
              4, 0, 1, 2,
              9, 1, 0, 1,
              2, 3, 1, 8});
    auto res = maxPool2d(x, 2, {2, 0});
    EXPECT_EQ(res.output.at(0, 0, 0, 0), 4);
    EXPECT_EQ(res.output.at(0, 0, 0, 1), 5);
    EXPECT_EQ(res.output.at(0, 0, 1, 0), 9);
    EXPECT_EQ(res.output.at(0, 0, 1, 1), 8);
    // Argmax flat indices (row * W + col).
    EXPECT_EQ(res.argmax.at(0, 0, 1, 0), 2 * 4 + 0);
    EXPECT_EQ(res.argmax.at(0, 0, 1, 1), 3 * 4 + 3);
}

TEST(MaxPool, BackwardRoutesToArgmax)
{
    Tensor x({1, 1, 4, 4},
             {1, 2, 5, 3,
              4, 0, 1, 2,
              9, 1, 0, 1,
              2, 3, 1, 8});
    auto res = maxPool2d(x, 2, {2, 0});
    Tensor dy = Tensor::full({1, 1, 2, 2}, 1.0f);
    Tensor dx = maxPool2dGrad(dy, res.argmax, x.shape(), 2, {2, 0});
    EXPECT_DOUBLE_EQ(dx.sum(), 4.0);
    EXPECT_EQ(dx.at(0, 0, 1, 0), 1.0f); // the 4
    EXPECT_EQ(dx.at(0, 0, 0, 2), 1.0f); // the 5
    EXPECT_EQ(dx.at(0, 0, 2, 0), 1.0f); // the 9
    EXPECT_EQ(dx.at(0, 0, 3, 3), 1.0f); // the 8
}

TEST(GlobalAvgPool, ForwardAndBackward)
{
    Tensor x = Tensor::full({2, 3, 4, 4}, 2.0f);
    Tensor y = globalAvgPool(x);
    EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 3}));
    EXPECT_FLOAT_EQ(y.at(0, 0), 2.0f);

    Tensor dy = Tensor::full({2, 3}, 16.0f);
    Tensor dx = globalAvgPoolGrad(dy, x.shape());
    EXPECT_FLOAT_EQ(dx.at(1, 2, 3, 3), 1.0f);
}

TEST(Softmax, RowsSumToOne)
{
    Rng rng(9);
    Tensor logits = Tensor::randn({4, 7}, rng, 3.0f);
    Tensor p = softmax(logits);
    for (std::int64_t i = 0; i < 4; ++i) {
        double row = 0.0;
        for (std::int64_t j = 0; j < 7; ++j) {
            EXPECT_GE(p.at(i, j), 0.0f);
            row += p.at(i, j);
        }
        EXPECT_NEAR(row, 1.0, 1e-5);
    }
}

TEST(Softmax, NumericallyStableForLargeLogits)
{
    Tensor logits({1, 2}, {1000.0f, 1001.0f});
    Tensor p = softmax(logits);
    EXPECT_NEAR(p.at(0, 1), 1.0 / (1.0 + std::exp(-1.0)), 1e-5);
}

TEST(CrossEntropy, PerfectPredictionHasLowLoss)
{
    Tensor logits({2, 3});
    logits.at(0, 0) = 20.0f;
    logits.at(1, 2) = 20.0f;
    auto res = crossEntropy(logits, {0, 2});
    EXPECT_LT(res.loss, 1e-3);
}

TEST(CrossEntropy, GradMatchesNumerical)
{
    Rng rng(13);
    Tensor logits = Tensor::randn({3, 4}, rng);
    const std::vector<int> labels{1, 3, 0};
    auto res = crossEntropy(logits, labels);
    Tensor numeric = numericalGrad(
        logits, [&] { return crossEntropy(logits, labels).loss; },
        1e-2f);
    EXPECT_TRUE(res.grad.allClose(numeric, 1e-2f));
}

TEST(CountCorrect, CountsArgmaxHits)
{
    Tensor logits({3, 2}, {0.1f, 0.9f, 0.8f, 0.2f, 0.4f, 0.6f});
    EXPECT_EQ(countCorrect(logits, {1, 0, 1}), 3);
    EXPECT_EQ(countCorrect(logits, {0, 0, 1}), 2);
    EXPECT_EQ(countCorrect(logits, {0, 1, 0}), 0);
}

TEST(Im2col, RowsAreWindows)
{
    Tensor x({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
    Tensor cols = im2col(x, 2, 2, {1, 0});
    ASSERT_EQ(cols.shape(), (std::vector<std::int64_t>{4, 4}));
    // First window: 1 2 / 4 5.
    EXPECT_EQ(cols.at(0, 0), 1);
    EXPECT_EQ(cols.at(0, 1), 2);
    EXPECT_EQ(cols.at(0, 2), 4);
    EXPECT_EQ(cols.at(0, 3), 5);
    // Last window: 5 6 / 8 9.
    EXPECT_EQ(cols.at(3, 3), 9);
}

TEST(Im2col, ZeroPaddingInsertsZeros)
{
    Tensor x = Tensor::full({1, 1, 2, 2}, 3.0f);
    Tensor cols = im2col(x, 3, 3, {1, 1});
    // Top-left window has its first row/col padded.
    EXPECT_EQ(cols.at(0, 0), 0.0f);
    EXPECT_EQ(cols.at(0, 4), 3.0f); // center = x(0,0)
}

} // namespace
} // namespace tensor
} // namespace inca
