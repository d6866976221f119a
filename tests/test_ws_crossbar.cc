/**
 * @file
 * WS baseline functional tests: crossbar programming, bit-serial
 * streaming, and the unrolled convolution's exact agreement with the
 * GEMM reference.
 */

#include <gtest/gtest.h>

#include "baseline/crossbar.hh"
#include "common/random.hh"
#include "tensor/ops.hh"

namespace inca {
namespace baseline {
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

TEST(WsCrossbar, ProgramAndReadBack)
{
    WsCrossbar xbar(8, 8);
    xbar.program(3, 5, true);
    EXPECT_TRUE(xbar.cell(3, 5));
    EXPECT_FALSE(xbar.cell(5, 3));
    xbar.program(3, 5, false);
    EXPECT_FALSE(xbar.cell(3, 5));
}

TEST(WsCrossbar, MatvecPopcount)
{
    WsCrossbar xbar(4, 3);
    // Column 0: rows 0 and 2; column 2: row 1.
    xbar.program(0, 0, true);
    xbar.program(2, 0, true);
    xbar.program(1, 2, true);
    const auto out = xbar.matvecBits({1, 1, 1, 1}, 8);
    EXPECT_EQ(out[0], 2);
    EXPECT_EQ(out[1], 0);
    EXPECT_EQ(out[2], 1);
    // Masking rows masks contributions.
    const auto masked = xbar.matvecBits({0, 1, 0, 1}, 8);
    EXPECT_EQ(masked[0], 0);
    EXPECT_EQ(masked[2], 1);
}

TEST(WsCrossbar, AdcSaturation)
{
    WsCrossbar xbar(8, 1);
    for (int r = 0; r < 8; ++r)
        xbar.program(r, 0, true);
    EXPECT_EQ(xbar.matvecBits(std::vector<std::uint8_t>(8, 1), 8)[0],
              8);
    EXPECT_EQ(xbar.matvecBits(std::vector<std::uint8_t>(8, 1), 2)[0],
              3);
}

TEST(WsCrossbar, EightBitAdcCoversFullColumns)
{
    // A 128-row column accumulates at most 128 < 255: the baseline's
    // 8-bit ADC never clips -- the reason the paper's baseline needs
    // high-resolution converters at all.
    WsCrossbar xbar(128, 1);
    for (int r = 0; r < 128; ++r)
        xbar.program(r, 0, true);
    EXPECT_EQ(
        xbar.matvecBits(std::vector<std::uint8_t>(128, 1), 8)[0], 128);
    EXPECT_LT(
        xbar.matvecBits(std::vector<std::uint8_t>(128, 1), 4)[0], 128);
}

struct WsCase
{
    int b, c, h, f, k, stride, pad, arraySize;
};

class WsConvEquivalence : public ::testing::TestWithParam<WsCase>
{
};

TEST_P(WsConvEquivalence, MatchesGemmReference)
{
    const auto p = GetParam();
    Rng rng(91);
    Tensor x = randomUnsigned({p.b, p.c, p.h, p.h}, 8, rng);
    Tensor w = randomSigned({p.f, p.c, p.k, p.k}, 8, rng);

    WsFunctionalOptions opts;
    opts.arraySize = p.arraySize;
    WsFunctional ws(opts);
    const ConvSpec spec{p.stride, p.pad};
    Tensor hw = ws.conv2d(x, w, spec);
    Tensor ref = tensor::conv2d(x, w, spec);
    EXPECT_TRUE(hw.equals(ref));
    // ... and transitively equals direct convolution.
    EXPECT_TRUE(hw.equals(tensor::conv2dNaive(x, w, spec)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WsConvEquivalence,
    ::testing::Values(WsCase{1, 1, 5, 1, 3, 1, 1, 128},
                      WsCase{2, 3, 6, 4, 3, 1, 1, 32},  // row tiling
                      WsCase{1, 2, 7, 5, 3, 2, 1, 16},  // col tiling
                      WsCase{1, 4, 6, 2, 1, 1, 0, 16},  // pointwise
                      WsCase{2, 2, 8, 3, 5, 1, 2, 64},
                      WsCase{1, 1, 6, 8, 3, 1, 0, 8})); // heavy tiling

TEST(WsFunctional, FcMatchesMatmul)
{
    Rng rng(92);
    Tensor x = randomUnsigned({3, 20}, 8, rng);
    Tensor w = randomSigned({20, 7}, 8, rng);
    WsFunctionalOptions opts;
    opts.arraySize = 16; // forces 2 row tiles
    WsFunctional ws(opts);
    Tensor hw = ws.fc(x, w);
    Tensor ref = tensor::matmul(x, w);
    EXPECT_TRUE(hw.equals(ref));
}

TEST(WsFunctional, RowTilingAddsPartialSums)
{
    // 300 rows over 128-row arrays: three tiles joined digitally.
    Rng rng(93);
    Tensor x = randomUnsigned({1, 300}, 8, rng);
    Tensor w = randomSigned({300, 2}, 8, rng);
    WsFunctional ws({128, 8, 8, 8});
    EXPECT_TRUE(ws.fc(x, w).equals(tensor::matmul(x, w)));
}

TEST(WsFunctionalDeath, NonIntegerWeightPanics)
{
    Tensor x = Tensor::full({1, 1, 4, 4}, 1.0f);
    Tensor w = Tensor::full({1, 1, 3, 3}, 0.25f);
    WsFunctional ws;
    EXPECT_DEATH(ws.conv2d(x, w, {1, 1}), "integer");
}

TEST(WsFunctionalDeath, CrossbarBoundsChecked)
{
    WsCrossbar xbar(4, 4);
    EXPECT_DEATH(xbar.program(4, 0, true), "outside");
    EXPECT_DEATH(xbar.matvecBits({1, 1}, 8), "arity");
}

} // namespace
} // namespace baseline
} // namespace inca
