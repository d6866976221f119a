/**
 * @file
 * Unrolled-vs-direct RRAM counting tests (paper Fig. 7b).
 */

#include <gtest/gtest.h>

#include "dataflow/unroll.hh"
#include "nn/model_zoo.hh"

namespace inca {
namespace dataflow {
namespace {

nn::LayerDesc
convLayer(std::int64_t c, std::int64_t hw, std::int64_t n, int k,
          int stride, int pad)
{
    nn::LayerDesc l;
    l.kind = nn::LayerKind::Conv;
    l.inC = c;
    l.inH = l.inW = hw;
    l.outC = n;
    l.outH = l.outW = (hw + 2 * pad - k) / stride + 1;
    l.kh = l.kw = k;
    l.stride = stride;
    l.pad = pad;
    return l;
}

TEST(Unroll, DirectCountsEachInputOnce)
{
    const auto l = convLayer(64, 56, 128, 3, 1, 1);
    EXPECT_EQ(directInputCount(l), 64 * 56 * 56);
}

TEST(Unroll, UnrolledDuplicatesOverlappingWindows)
{
    const auto l = convLayer(64, 56, 128, 3, 1, 1);
    // Every one of the 56x56 positions stores a full 3x3x64 window.
    EXPECT_EQ(unrolledInputCount(l), 9LL * 64 * 56 * 56);
    // ~9x duplication for stride-1 3x3 convolution.
    EXPECT_NEAR(double(unrolledInputCount(l)) /
                    double(directInputCount(l)),
                9.0, 1e-9);
}

TEST(Unroll, StrideReducesDuplication)
{
    const auto s1 = convLayer(16, 32, 16, 3, 1, 1);
    const auto s2 = convLayer(16, 33, 16, 3, 2, 1);
    const double r1 = double(unrolledInputCount(s1)) /
                      double(directInputCount(s1));
    const double r2 = double(unrolledInputCount(s2)) /
                      double(directInputCount(s2));
    EXPECT_GT(r1, r2);
}

TEST(Unroll, PointwiseHasNoDuplication)
{
    const auto l = convLayer(64, 28, 128, 1, 1, 0);
    EXPECT_EQ(unrolledInputCount(l), directInputCount(l));
}

TEST(Unroll, NonConvIsZero)
{
    nn::LayerDesc pool;
    pool.kind = nn::LayerKind::MaxPool;
    EXPECT_EQ(unrolledInputCount(pool), 0);
    EXPECT_EQ(directInputCount(pool), 0);
}

TEST(Fig7b, RatiosExceedOneEverywhere)
{
    for (const auto &net : nn::evaluationSuite()) {
        const auto s = unrollComparison(net);
        EXPECT_GT(s.ratio(), 1.5) << net.name;
        EXPECT_GT(s.unrolled, s.direct) << net.name;
    }
}

TEST(Fig7b, VggsDuplicateMost)
{
    // Stride-1 3x3 stacks duplicate ~9x, and pointwise-heavy
    // ResNet50 least: the ordering Fig. 7b motivates.
    const double vgg16 = unrollComparison(nn::vgg16()).ratio();
    const double vgg19 = unrollComparison(nn::vgg19()).ratio();
    const double rn50 = unrollComparison(nn::resnet50()).ratio();
    EXPECT_GT(vgg16, rn50);
    EXPECT_GT(vgg19, rn50);
    EXPECT_NEAR(vgg16, 9.0, 0.5);
}

TEST(Fig7b, DirectConvolutionJustifiesIncaDesign)
{
    // The design decision the figure motivates: direct convolution
    // keeps the IS RRAM requirement a small multiple of the
    // activation count.
    // direct counts conv-like inputs only, which is exactly the set
    // totalActivations() counts.
    for (const auto &net : nn::heavySuite()) {
        const auto s = unrollComparison(net);
        EXPECT_EQ(s.direct, net.totalActivations()) << net.name;
    }
}

} // namespace
} // namespace dataflow
} // namespace inca
