/**
 * @file
 * Property-based tests: instead of pinning hand-picked examples,
 * generate a few hundred random cases per property from a fixed seed
 * and assert relations that must hold EXACTLY.
 *
 * Exactness discipline: every property below is bit-exact, never
 * approximate. Scalings use powers of two (exact in binary floating
 * point), additivity uses integer-valued floats (closed under + and *
 * well inside 2^24), and the analytic models are integer/closed-form
 * arithmetic. An EXPECT_NEAR property can silently rot as the model
 * drifts; an exact one cannot.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "dataflow/access_model.hh"
#include "dataflow/footprint.hh"
#include "nn/layer.hh"
#include "nn/model_zoo.hh"
#include "tensor/ops.hh"

namespace inca {
namespace {

constexpr int kCases = 200;
constexpr std::uint64_t kSeed = 0xC0FFEE;

using tensor::ConvSpec;
using tensor::Tensor;

/** Random small conv problem: shapes, spec, and data. */
struct ConvCase
{
    Tensor x, w;
    ConvSpec spec;
};

ConvCase
randomConvCase(Rng &rng)
{
    ConvCase c;
    const std::int64_t n = 1 + std::int64_t(rng.below(2));
    const std::int64_t ch = 1 + std::int64_t(rng.below(3));
    const int kh = 1 + int(rng.below(3));
    const int kw = 1 + int(rng.below(3));
    c.spec.stride = 1 + int(rng.below(2));
    c.spec.pad = int(rng.below(2));
    const std::int64_t h =
        kh + std::int64_t(rng.below(6)); // window always fits
    const std::int64_t w = kw + std::int64_t(rng.below(6));
    const std::int64_t f = 1 + std::int64_t(rng.below(4));
    c.x = Tensor::randn({n, ch, h, w}, rng);
    c.w = Tensor::randn({f, ch, kh, kw}, rng);
    return c;
}

/** Tensor of uniform integer values in [-range, range]. */
Tensor
integerTensor(std::vector<std::int64_t> shape, Rng &rng, int range)
{
    Tensor t(std::move(shape));
    for (std::int64_t i = 0; i < t.size(); ++i)
        t[i] = float(int(rng.below(std::uint64_t(2 * range + 1))) -
                     range);
    return t;
}

TEST(PropertyConv, ProductionPathsMatchNaiveBitForBit)
{
    Rng rng(kSeed);
    for (int i = 0; i < kCases; ++i) {
        SCOPED_TRACE(i);
        const auto c = randomConvCase(rng);
        const auto ref = tensor::conv2dNaive(c.x, c.w, c.spec);
        EXPECT_TRUE(tensor::conv2d(c.x, c.w, c.spec).equals(ref));
    }
}

TEST(PropertyConv, PowerOfTwoScalingIsExactlyHomogeneous)
{
    // conv2d(s*x, w) == s*conv2d(x, w) exactly when s is a power of
    // two: scaling by 2^e only moves exponents, so every product and
    // partial sum rounds identically.
    Rng rng(kSeed + 1);
    for (int i = 0; i < kCases; ++i) {
        SCOPED_TRACE(i);
        const auto c = randomConvCase(rng);
        const float s = float(std::int64_t(1) << rng.below(4)) *
                        (rng.below(2) ? 1.0f : 0.25f);
        Tensor scaled = c.x;
        scaled *= s;
        Tensor expect = tensor::conv2d(c.x, c.w, c.spec);
        expect *= s;
        EXPECT_TRUE(
            tensor::conv2d(scaled, c.w, c.spec).equals(expect));
    }
}

TEST(PropertyConv, AdditivityIsExactOnIntegerValues)
{
    Rng rng(kSeed + 2);
    for (int i = 0; i < kCases; ++i) {
        SCOPED_TRACE(i);
        auto c = randomConvCase(rng);
        const auto xShape = c.x.shape();
        const Tensor x1 = integerTensor(xShape, rng, 8);
        const Tensor x2 = integerTensor(xShape, rng, 8);
        const Tensor w = integerTensor(c.w.shape(), rng, 4);
        Tensor xSum = x1;
        xSum += x2;
        Tensor expect = tensor::conv2d(x1, w, c.spec);
        expect += tensor::conv2d(x2, w, c.spec);
        EXPECT_TRUE(tensor::conv2d(xSum, w, c.spec).equals(expect));
    }
}

TEST(PropertyActivations, ReluIsIdempotentAndNonNegative)
{
    Rng rng(kSeed + 3);
    for (int i = 0; i < kCases; ++i) {
        SCOPED_TRACE(i);
        const std::int64_t n = 1 + std::int64_t(rng.below(64));
        const Tensor x = Tensor::randn({n}, rng);
        const Tensor y = tensor::relu(x);
        EXPECT_TRUE(tensor::relu(y).equals(y));
        for (std::int64_t j = 0; j < n; ++j) {
            EXPECT_GE(y[j], 0.0f);
            EXPECT_EQ(y[j], x[j] > 0.0f ? x[j] : 0.0f);
        }
        // The gradient mask agrees with the forward clamp.
        const Tensor dy = Tensor::full({n}, 1.0f);
        const Tensor dx = tensor::reluGrad(dy, x);
        for (std::int64_t j = 0; j < n; ++j)
            EXPECT_EQ(dx[j], x[j] > 0.0f ? 1.0f : 0.0f);
    }
}

TEST(PropertyLinearAlgebra, TransposeIsAnInvolution)
{
    Rng rng(kSeed + 4);
    for (int i = 0; i < kCases; ++i) {
        SCOPED_TRACE(i);
        const std::int64_t m = 1 + std::int64_t(rng.below(8));
        const std::int64_t n = 1 + std::int64_t(rng.below(8));
        const Tensor a = Tensor::randn({m, n}, rng);
        EXPECT_TRUE(
            tensor::transpose(tensor::transpose(a)).equals(a));
    }
}

TEST(PropertyLinearAlgebra, IdentityIsMatmulNeutral)
{
    Rng rng(kSeed + 5);
    for (int i = 0; i < kCases; ++i) {
        SCOPED_TRACE(i);
        const std::int64_t m = 1 + std::int64_t(rng.below(8));
        const std::int64_t n = 1 + std::int64_t(rng.below(8));
        const Tensor a = Tensor::randn({m, n}, rng);
        Tensor eye({n, n});
        for (std::int64_t j = 0; j < n; ++j)
            eye.at(j, j) = 1.0f;
        EXPECT_TRUE(tensor::matmul(a, eye).equals(a));
    }
}

// -------------------------------------------------------------------
// Analytic access-model invariants (paper Eqs. 5 & 6).

dataflow::AccessConfig
randomAccessConfig(Rng &rng)
{
    const int bitsChoices[] = {2, 4, 8, 16};
    const int busChoices[] = {64, 128, 256, 512};
    dataflow::AccessConfig cfg;
    cfg.bitPrecision = bitsChoices[rng.below(4)];
    cfg.busWidthBits = busChoices[rng.below(4)];
    return cfg;
}

nn::LayerDesc
randomConvLayer(Rng &rng)
{
    nn::LayerDesc l;
    l.kind = nn::LayerKind::Conv;
    l.name = "prop";
    l.kh = l.kw = 1 + int(rng.below(5));
    l.stride = 1;
    l.pad = 0;
    l.inC = 1 + std::int64_t(rng.below(64));
    l.outC = 1 + std::int64_t(rng.below(64));
    l.outH = l.outW = 1 + std::int64_t(rng.below(56));
    l.inH = l.outH + l.kh - 1;
    l.inW = l.outW + l.kw - 1;
    return l;
}

TEST(PropertyAccessModel, IncaAccessesAreLinearInOutputChannels)
{
    // INCA fetches Eq5 words once per output channel (N), so doubling
    // N exactly doubles the IS count; Eq5 itself never sees N.
    Rng rng(kSeed + 6);
    for (int i = 0; i < kCases; ++i) {
        SCOPED_TRACE(i);
        const auto cfg = randomAccessConfig(rng);
        auto layer = randomConvLayer(rng);
        const auto once = dataflow::isLayerAccesses(layer, cfg);
        layer.outC *= 2;
        EXPECT_EQ(dataflow::isLayerAccesses(layer, cfg), 2 * once);
    }
}

TEST(PropertyAccessModel, FetchWordsMonotoneInPrecisionAndBus)
{
    Rng rng(kSeed + 7);
    for (int i = 0; i < kCases; ++i) {
        SCOPED_TRACE(i);
        const auto layer = randomConvLayer(rng);
        auto cfg = randomAccessConfig(rng);
        const auto base = dataflow::fetchWordsPerOutput(layer, cfg);
        auto widerData = cfg;
        widerData.bitPrecision *= 2;
        EXPECT_GE(dataflow::fetchWordsPerOutput(layer, widerData),
                  base);
        auto widerBus = cfg;
        widerBus.busWidthBits *= 2;
        EXPECT_LE(dataflow::fetchWordsPerOutput(layer, widerBus),
                  base);
    }
}

TEST(PropertyAccessModel, TrainingExactlyDoublesIncaTraffic)
{
    // Section V-B-1: training re-fetches the transposed weights from
    // the same buffer, doubling INCA's count for every network at
    // every resolution and precision.
    Rng rng(kSeed + 8);
    const char *names[] = {"vgg16",    "resnet18", "mobilenetv2",
                           "mnasnet",  "vgg8",     "resnet50"};
    const std::int64_t sizes[] = {32, 64, 96, 128, 160, 224};
    for (int i = 0; i < kCases; ++i) {
        SCOPED_TRACE(i);
        nn::InputSpec in;
        in.size = sizes[rng.below(6)];
        const auto net = nn::byName(names[rng.below(6)], in);
        const auto cfg = randomAccessConfig(rng);
        const auto inf = dataflow::networkAccesses(net, cfg);
        const auto trn = dataflow::networkTrainingAccesses(net, cfg);
        EXPECT_EQ(trn.inca, 2 * inf.inca);
        EXPECT_GE(trn.baseline, inf.baseline);
    }
}

TEST(PropertyFootprint, MonotoneInPrecisionAndResolution)
{
    Rng rng(kSeed + 9);
    const char *names[] = {"vgg16", "resnet18", "mobilenetv2",
                           "mnasnet"};
    const std::int64_t sizes[] = {32, 64, 96, 128, 160, 224};
    for (int i = 0; i < kCases; ++i) {
        SCOPED_TRACE(i);
        const char *name = names[rng.below(4)];
        nn::InputSpec in;
        in.size = sizes[rng.below(5)]; // leave headroom to grow
        const auto net = nn::byName(name, in);
        const auto f8 = dataflow::footprint(net, 8);
        const auto f16 = dataflow::footprint(net, 16);
        EXPECT_GE(f16.baseline.rram, f8.baseline.rram);
        EXPECT_GE(f16.baseline.buffers, f8.baseline.buffers);
        EXPECT_GE(f16.inca.rram, f8.inca.rram);
        EXPECT_GE(f16.inca.buffers, f8.inca.buffers);

        nn::InputSpec bigger = in;
        bigger.size = 224;
        const auto fBig =
            dataflow::footprint(nn::byName(name, bigger), 8);
        EXPECT_GE(fBig.baseline.rram, f8.baseline.rram);
        EXPECT_GE(fBig.inca.rram, f8.inca.rram);
    }
}

TEST(PropertyFootprint, ActivationSwapHoldsEverywhere)
{
    // Table IV's structural identity -- INCA's RRAM need IS the
    // baseline's buffer need -- must hold at every resolution and
    // precision, not just the paper's 224/8-bit points.
    Rng rng(kSeed + 10);
    const char *names[] = {"vgg16",   "vgg19",       "resnet18",
                           "resnet50", "mobilenetv2", "mnasnet"};
    const std::int64_t sizes[] = {32, 64, 96, 128, 160, 224};
    const int precisions[] = {2, 4, 8, 16};
    for (int i = 0; i < kCases; ++i) {
        SCOPED_TRACE(i);
        nn::InputSpec in;
        in.size = sizes[rng.below(6)];
        const auto net = nn::byName(names[rng.below(6)], in);
        const auto f =
            dataflow::footprint(net, precisions[rng.below(4)]);
        EXPECT_EQ(f.inca.rram, f.baseline.buffers);
    }
}

/**
 * The batched RNG entry points (SplitMix64::nextBatch/uniformBatch,
 * Rng::fillRaw/fillUniform) exist so hot loops can draw in chunks;
 * the Monte-Carlo fault sampler's reproducibility rests on each batch
 * being BYTE-identical to the same number of one-at-a-time draws on
 * the same stream key. These properties sweep random seeds, random
 * batch sizes (including 0 and 1), and random split points, and
 * compare raw 64-bit words -- no tolerance anywhere.
 */

TEST(PropertyRandom, SplitMixBatchMatchesSequentialDraws)
{
    Rng meta(kSeed + 11);
    for (int i = 0; i < 100; ++i) {
        SCOPED_TRACE(i);
        const std::uint64_t seed = meta.next();
        const std::size_t count = std::size_t(meta.below(600));

        SplitMix64 seq(seed);
        std::vector<std::uint64_t> ref(count);
        for (auto &v : ref)
            v = seq.next();

        SplitMix64 batched(seed);
        std::vector<std::uint64_t> got(count, 0);
        batched.nextBatch(got.data(), count);
        ASSERT_EQ(got, ref);

        // The generators end in the same state: the next draw after
        // the batch continues the stream, not a fork of it.
        ASSERT_EQ(batched.next(), seq.next());
    }
}

TEST(PropertyRandom, SplitMixBatchSplitsAnywhere)
{
    // Drawing N values as one batch, as two batches split at any
    // point, or one at a time must all be the same stream.
    Rng meta(kSeed + 12);
    for (int i = 0; i < 100; ++i) {
        SCOPED_TRACE(i);
        const std::uint64_t seed = meta.next();
        const std::size_t count = 1 + std::size_t(meta.below(300));
        const std::size_t cut = std::size_t(meta.below(count + 1));

        SplitMix64 whole(seed);
        std::vector<std::uint64_t> ref(count);
        whole.nextBatch(ref.data(), count);

        SplitMix64 parts(seed);
        std::vector<std::uint64_t> got(count, 0);
        parts.nextBatch(got.data(), cut);
        parts.nextBatch(got.data() + cut, count - cut);
        ASSERT_EQ(got, ref);
    }
}

TEST(PropertyRandom, SplitMixUniformBatchMatchesSequential)
{
    Rng meta(kSeed + 13);
    for (int i = 0; i < 100; ++i) {
        SCOPED_TRACE(i);
        const std::uint64_t seed = meta.next();
        const std::size_t count = std::size_t(meta.below(400));

        SplitMix64 seq(seed);
        std::vector<double> ref(count);
        for (auto &v : ref)
            v = seq.uniform();

        SplitMix64 batched(seed);
        std::vector<double> got(count, -1.0);
        batched.uniformBatch(got.data(), count);
        // operator== on doubles here is exact by design: identical
        // bits in, identical mantissa scaling out.
        ASSERT_EQ(got, ref);
        for (double v : got) {
            ASSERT_GE(v, 0.0);
            ASSERT_LT(v, 1.0);
        }
    }
}

TEST(PropertyRandom, RngFillMatchesSequentialDraws)
{
    Rng meta(kSeed + 14);
    for (int i = 0; i < 100; ++i) {
        SCOPED_TRACE(i);
        const std::uint64_t seed = meta.next();
        const std::size_t count = std::size_t(meta.below(500));

        Rng seqRaw(seed);
        std::vector<std::uint64_t> refRaw(count);
        for (auto &v : refRaw)
            v = seqRaw.next();
        Rng batchRaw(seed);
        std::vector<std::uint64_t> gotRaw(count, 0);
        batchRaw.fillRaw(gotRaw.data(), count);
        ASSERT_EQ(gotRaw, refRaw);
        ASSERT_EQ(batchRaw.next(), seqRaw.next());

        Rng seqUni(seed);
        std::vector<double> refUni(count);
        for (auto &v : refUni)
            v = seqUni.uniform();
        Rng batchUni(seed);
        std::vector<double> gotUni(count, -1.0);
        batchUni.fillUniform(gotUni.data(), count);
        ASSERT_EQ(gotUni, refUni);
    }
}

} // namespace
} // namespace inca
