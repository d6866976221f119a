/**
 * @file
 * Differential rig for the dispatched SIMD microkernels.
 *
 * The kernel layer's whole contract is one sentence: every ISA
 * variant of every kernel is bit-identical to the scalar reference
 * (see tensor/kernels/kernels.hh). These tests enforce it the blunt
 * way -- run every available KernelSet against the scalar one over an
 * adversarial shape sweep (K=1 depths, vector-tail column counts,
 * stride > 1 gathers, padded/dilated grads, non-contiguous source
 * views) at 1, 2 and 8 pool threads, and demand 0-ULP agreement.
 *
 * Also covered here: the dispatch machinery itself (parseIsa, the
 * INCA_KERNEL_ISA override with its fatal() on bogus values, the
 * kernel.dispatch.<isa> counters) and the arena scratch pool the
 * vectorized im2col path leases its workspaces from.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.hh"
#include "common/metrics.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "driver_specs.hh"
#include "tensor/kernels/kernels.hh"
#include "tensor/ops.hh"

namespace inca {
namespace {

using tensor::ConvSpec;
using tensor::Tensor;

const std::vector<int> kThreadCounts = {1, 2, 8};

/** Every test leaves dispatch and the pool in their defaults. */
class KernelDispatch : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        kernels::resetActive();
        ThreadPool::setGlobalThreads(1);
    }

    /** Non-scalar ISAs this process can run (may be empty). */
    static std::vector<kernels::Isa>
    vectorIsas()
    {
        std::vector<kernels::Isa> out;
        for (kernels::Isa isa : kernels::availableIsas())
            if (isa != kernels::Isa::Scalar)
                out.push_back(isa);
        return out;
    }
};

/* ------------------------------------------------------------------ */
/* Dispatch machinery                                                 */
/* ------------------------------------------------------------------ */

TEST_F(KernelDispatch, ParseIsaAcceptsExactlyTheDocumentedNames)
{
    kernels::Isa isa = kernels::Isa::Avx512;
    EXPECT_TRUE(kernels::parseIsa("scalar", isa));
    EXPECT_EQ(isa, kernels::Isa::Scalar);
    EXPECT_TRUE(kernels::parseIsa("avx2", isa));
    EXPECT_EQ(isa, kernels::Isa::Avx2);
    EXPECT_TRUE(kernels::parseIsa("avx512", isa));
    EXPECT_EQ(isa, kernels::Isa::Avx512);

    // Case-sensitive, no aliases, no whitespace tolerance: the env
    // override must never guess.
    for (const char *bad :
         {"", "AVX2", "Scalar", "avx-512", "avx512f", "sse", "auto",
          " avx2", "avx2 ", "native"})
        EXPECT_FALSE(kernels::parseIsa(bad, isa)) << "'" << bad << "'";
    EXPECT_FALSE(kernels::parseIsa(nullptr, isa));
}

TEST_F(KernelDispatch, IsaNamesRoundTripThroughParse)
{
    for (kernels::Isa isa :
         {kernels::Isa::Scalar, kernels::Isa::Avx2,
          kernels::Isa::Avx512}) {
        kernels::Isa back = kernels::Isa::Scalar;
        ASSERT_TRUE(kernels::parseIsa(kernels::isaName(isa), back));
        EXPECT_EQ(back, isa);
    }
}

TEST_F(KernelDispatch, ScalarAlwaysAvailableAndListedFirst)
{
    EXPECT_TRUE(kernels::isaAvailable(kernels::Isa::Scalar));
    EXPECT_NE(kernels::kernelSet(kernels::Isa::Scalar), nullptr);
    const auto isas = kernels::availableIsas();
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), kernels::Isa::Scalar);
    // Widest last, strictly ordered.
    for (std::size_t i = 1; i < isas.size(); ++i)
        EXPECT_LT(int(isas[i - 1]), int(isas[i]));
    for (kernels::Isa isa : isas) {
        const kernels::KernelSet *k = kernels::kernelSet(isa);
        ASSERT_NE(k, nullptr);
        EXPECT_EQ(k->isa, isa);
        EXPECT_STREQ(k->name, kernels::isaName(isa));
    }
}

TEST_F(KernelDispatch, SetActiveForcesEveryAvailableIsa)
{
    for (kernels::Isa isa : kernels::availableIsas()) {
        kernels::setActive(isa);
        EXPECT_EQ(kernels::activeIsa(), isa);
        EXPECT_EQ(kernels::active().isa, isa);
    }
    kernels::resetActive();
    // Post-reset resolution lands on something available.
    EXPECT_TRUE(kernels::isaAvailable(kernels::activeIsa()));
}

TEST_F(KernelDispatch, ActiveBumpsTheDispatchCounterForItsIsa)
{
    kernels::setActive(kernels::Isa::Scalar);
    auto &scalarCounter =
        metrics::counter("kernel.dispatch.scalar");
    const std::uint64_t before = scalarCounter.value();
    (void)kernels::active();
    (void)kernels::active();
    EXPECT_EQ(scalarCounter.value(), before + 2);

    // activeIsa() is the counter-free read.
    (void)kernels::activeIsa();
    EXPECT_EQ(scalarCounter.value(), before + 2);

    for (kernels::Isa isa : vectorIsas()) {
        auto &c = metrics::counter(
            std::string("kernel.dispatch.") + kernels::isaName(isa));
        const std::uint64_t b = c.value();
        kernels::setActive(isa);
        (void)kernels::active();
        EXPECT_EQ(c.value(), b + 1) << kernels::isaName(isa);
    }
}

TEST_F(KernelDispatch, EnvOverrideForcesTheNamedIsa)
{
    // setenv + resetActive: the next resolution must obey the env
    // var, exactly as a driver process would at startup.
    for (kernels::Isa isa : kernels::availableIsas()) {
        ASSERT_EQ(setenv("INCA_KERNEL_ISA", kernels::isaName(isa), 1),
                  0);
        kernels::resetActive();
        EXPECT_EQ(kernels::activeIsa(), isa) << kernels::isaName(isa);
    }
    ASSERT_EQ(unsetenv("INCA_KERNEL_ISA"), 0);
    kernels::resetActive();
}

TEST_F(KernelDispatch, BogusEnvOverrideIsFatal)
{
    // The setenv runs in the death-test child only, so the parent's
    // environment is untouched.
    EXPECT_DEATH(
        {
            setenv("INCA_KERNEL_ISA", "avx9000", 1);
            kernels::resetActive();
            (void)kernels::active();
        },
        "not a kernel ISA");
}

TEST_F(KernelDispatch, DriverResultsIdenticalUnderEveryIsa)
{
    // compare_dataflows 64 and fault_campaign's lenet5 spec: forcing
    // any ISA may change wall-clock, never a byte of the exports.
    const auto exports = [] {
        return testutil::compareDataflowsRuns() +
               testutil::campaignExports(reliability::runCampaign(
                   testutil::lenet5Campaign()));
    };
    ThreadPool::setGlobalThreads(1);
    kernels::resetActive();
    const kernels::Isa defaultIsa = kernels::activeIsa();
    const std::string reference = exports();
    for (const int threads : {1, 8}) {
        SCOPED_TRACE(threads);
        ThreadPool::setGlobalThreads(threads);
        for (kernels::Isa isa : kernels::availableIsas()) {
            if (threads == 1 && isa == defaultIsa)
                continue; // the reference run
            SCOPED_TRACE(kernels::isaName(isa));
            kernels::setActive(isa);
            EXPECT_EQ(exports(), reference);
        }
    }
}

TEST_F(KernelDispatch, UnavailableEnvOverrideIsFatalNotAFallback)
{
    // Only meaningful when some ISA is missing from this process;
    // on a full AVX-512 build+CPU there is nothing unavailable to
    // request.
    const char *missing = nullptr;
    for (kernels::Isa isa :
         {kernels::Isa::Avx2, kernels::Isa::Avx512})
        if (!kernels::isaAvailable(isa))
            missing = kernels::isaName(isa);
    if (missing == nullptr)
        GTEST_SKIP() << "every ISA is available in this process";
    EXPECT_DEATH(
        {
            setenv("INCA_KERNEL_ISA", missing, 1);
            kernels::resetActive();
            (void)kernels::active();
        },
        "does not support it");
}

/* ------------------------------------------------------------------ */
/* Raw kernel differentials                                           */
/* ------------------------------------------------------------------ */

/**
 * Lengths around every vector-width boundary: empty, scalar tail
 * only, exactly one AVX2 lane, one AVX-512 lane, one-past, and runs
 * long enough to hit the unrolled body plus a ragged tail.
 */
const std::vector<std::int64_t> kLengths = {0,  1,  3,  7,  8,  9,
                                            15, 16, 17, 31, 33, 64,
                                            100, 255, 1024, 1000};

TEST_F(KernelDispatch, CopyRowMatchesScalarAtEveryLength)
{
    const auto vecs = vectorIsas();
    if (vecs.empty())
        GTEST_SKIP() << "no vector ISA available";
    Rng rng(11);
    for (std::int64_t len : kLengths) {
        SCOPED_TRACE("len=" + std::to_string(len));
        std::vector<float> src(std::size_t(len) + 8, 0.0f);
        for (auto &v : src)
            v = float(rng.uniform(-2.0, 2.0));
        std::vector<float> ref(std::size_t(len) + 4, -7.0f);
        kernels::kernelSet(kernels::Isa::Scalar)
            ->copyRow(ref.data(), src.data(), len);
        for (kernels::Isa isa : vecs) {
            std::vector<float> got(std::size_t(len) + 4, -7.0f);
            kernels::kernelSet(isa)->copyRow(got.data(), src.data(),
                                             len);
            EXPECT_EQ(got, ref) << kernels::isaName(isa);
        }
    }
}

TEST_F(KernelDispatch, GatherRowMatchesScalarAtEveryLengthAndStride)
{
    const auto vecs = vectorIsas();
    if (vecs.empty())
        GTEST_SKIP() << "no vector ISA available";
    Rng rng(12);
    for (std::int64_t len : kLengths) {
        for (std::int64_t stride : {2, 3, 5, 7}) {
            SCOPED_TRACE("len=" + std::to_string(len) + " stride=" +
                         std::to_string(stride));
            std::vector<float> src(std::size_t(len * stride) + 8,
                                   0.0f);
            for (auto &v : src)
                v = float(rng.uniform(-2.0, 2.0));
            std::vector<float> ref(std::size_t(len) + 4, -7.0f);
            kernels::kernelSet(kernels::Isa::Scalar)
                ->gatherRow(ref.data(), src.data(), len, stride);
            for (kernels::Isa isa : vecs) {
                std::vector<float> got(std::size_t(len) + 4, -7.0f);
                kernels::kernelSet(isa)->gatherRow(
                    got.data(), src.data(), len, stride);
                EXPECT_EQ(got, ref) << kernels::isaName(isa);
            }
        }
    }
}

TEST_F(KernelDispatch, ScanBelowMatchesScalarIncludingHitPositions)
{
    const auto vecs = vectorIsas();
    if (vecs.empty())
        GTEST_SKIP() << "no vector ISA available";
    Rng rng(13);
    for (std::int64_t len : kLengths) {
        std::vector<double> v(std::size_t(len), 0.0);
        for (auto &x : v)
            x = rng.uniform();
        // Sweep thresholds from hit-nothing to hit-everything, plus
        // a planted hit at every lane position of the first vector.
        std::vector<std::pair<std::string, std::vector<double>>>
            variants;
        variants.emplace_back("random", v);
        for (std::int64_t pos = 0; pos < std::min<std::int64_t>(
                                             len, 17);
             ++pos) {
            auto planted = v;
            for (auto &x : planted)
                x = 0.5 + 0.5 * x; // lift everything above 0.5
            planted[std::size_t(pos)] = 0.25;
            variants.emplace_back("planted@" + std::to_string(pos),
                                  planted);
        }
        for (const auto &[tag, data] : variants) {
            for (double thr : {0.0, 1e-9, 0.3, 0.5, 1.0}) {
                SCOPED_TRACE("len=" + std::to_string(len) + " " +
                             tag + " thr=" + std::to_string(thr));
                const std::int64_t ref =
                    kernels::kernelSet(kernels::Isa::Scalar)
                        ->scanBelow(data.data(), len, thr);
                for (kernels::Isa isa : vecs)
                    EXPECT_EQ(kernels::kernelSet(isa)->scanBelow(
                                  data.data(), len, thr),
                              ref)
                        << kernels::isaName(isa);
            }
        }
    }
}

TEST_F(KernelDispatch, GemmRowRangeMatchesScalarOnTailHeavyShapes)
{
    const auto vecs = vectorIsas();
    if (vecs.empty())
        GTEST_SKIP() << "no vector ISA available";
    // (m, k, n) with every kind of ragged edge: k=1 (single product,
    // no accumulation), n=1 (pure scalar tail), n just below/at/above
    // the 8- and 16-wide boundaries, and a skinny-deep case.
    const std::vector<std::array<std::int64_t, 3>> shapes = {
        {1, 1, 1},   {1, 1, 17},  {3, 1, 16},  {2, 7, 1},
        {5, 3, 7},   {4, 9, 8},   {4, 9, 9},   {7, 5, 15},
        {7, 5, 16},  {7, 5, 17},  {3, 64, 31}, {3, 64, 33},
        {16, 2, 24}, {2, 128, 5}, {9, 11, 40},
    };
    Rng rng(14);
    for (const auto &[m, k, n] : shapes) {
        SCOPED_TRACE("m" + std::to_string(m) + "k" +
                     std::to_string(k) + "n" + std::to_string(n));
        std::vector<float> a(std::size_t(m * k)),
            b(std::size_t(k * n));
        for (auto &x : a)
            x = float(rng.uniform(-1.0, 1.0));
        for (auto &x : b)
            x = float(rng.uniform(-1.0, 1.0));
        // Non-zero initial C: the kernel accumulates, so the starting
        // contents participate in the rounding sequence.
        std::vector<float> cInit(std::size_t(m * n));
        for (auto &x : cInit)
            x = float(rng.uniform(-1.0, 1.0));

        std::vector<float> ref = cInit;
        kernels::kernelSet(kernels::Isa::Scalar)
            ->gemmRowRange(a.data(), k, b.data(), n, ref.data(), n,
                           0, m, k, n);
        for (kernels::Isa isa : vecs) {
            std::vector<float> got = cInit;
            kernels::kernelSet(isa)->gemmRowRange(
                a.data(), k, b.data(), n, got.data(), n, 0, m, k, n);
            EXPECT_EQ(got, ref) << kernels::isaName(isa);
            // Partial row ranges splice identically (the ThreadPool
            // fan-out calls the kernel exactly this way).
            if (m > 2) {
                std::vector<float> split = cInit;
                kernels::kernelSet(isa)->gemmRowRange(
                    a.data(), k, b.data(), n, split.data(), n, 0,
                    m / 2, k, n);
                kernels::kernelSet(isa)->gemmRowRange(
                    a.data(), k, b.data(), n, split.data(), n,
                    m / 2, m, k, n);
                EXPECT_EQ(split, ref)
                    << kernels::isaName(isa) << " split";
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* End-to-end op differentials                                        */
/* ------------------------------------------------------------------ */

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
 * The adversarial sweep: output widths of 1 (the GEMM n=1 scalar
 * tail), widths straddling the 8/16-lane boundaries, stride 2/3
 * (gatherRow path), pad >= k (the input-grad fallback), 1x1 kernels
 * (im2col rows degenerate to strided views), and kernels as large as
 * the input.
 */
const std::vector<ConvCase> kConvCases = {
    {1, 1, 1, 3, 3, 3, 3, 1, 0},    // ow = 1: pure tail GEMM
    {1, 1, 1, 1, 1, 1, 1, 1, 0},    // everything is 1
    {1, 2, 3, 5, 9, 1, 1, 1, 0},    // 1x1 kernel, ow = 9
    {2, 3, 4, 6, 17, 3, 3, 1, 1},   // ow = 17: one lane + 1 (avx512)
    {1, 2, 2, 4, 10, 3, 3, 1, 1},   // ow = 10: 8 + 2 (avx2 tail)
    {1, 3, 5, 8, 18, 3, 3, 1, 0},   // ow = 16: exactly one 512 lane
    {2, 2, 3, 9, 9, 3, 3, 2, 1},    // stride 2: gather packing
    {1, 4, 2, 12, 13, 3, 3, 3, 1},  // stride 3, odd width
    {1, 3, 3, 6, 6, 2, 2, 1, 2},    // pad > k-1: input-grad fallback
    {3, 2, 4, 5, 5, 3, 3, 1, 2},    // pad = k-1
    {1, 1, 2, 7, 7, 7, 7, 1, 3},    // kernel spans padded input
    {1, 2, 2, 8, 6, 1, 3, 1, 0},    // 1x3 asymmetric
    {2, 3, 4, 7, 9, 3, 1, 1, 0},    // 3x1 asymmetric
    {7, 1, 6, 10, 10, 4, 4, 2, 0},  // even kernel, odd batch
    {1, 6, 8, 14, 14, 3, 3, 2, 1},  // wider channels (deep GEMM k)
    {2, 2, 2, 13, 33, 5, 3, 2, 2},  // wide input, 512 tail outputs
};

TEST_F(KernelDispatch, ConvForwardBitIdenticalAcrossIsasAndThreads)
{
    const auto isas = kernels::availableIsas();
    for (const auto &cs : kConvCases) {
        SCOPED_TRACE(cs.label());
        Rng rng(3000 + cs.n + 31 * cs.h + 7 * cs.kh);
        const Tensor x = Tensor::randn({cs.n, cs.c, cs.h, cs.w}, rng);
        const Tensor w =
            Tensor::randn({cs.f, cs.c, cs.kh, cs.kw}, rng);
        const ConvSpec spec{cs.stride, cs.pad};

        kernels::setActive(kernels::Isa::Scalar);
        ThreadPool::setGlobalThreads(1);
        const Tensor ref = tensor::conv2d(x, w, spec);
        EXPECT_TRUE(ref.equals(tensor::conv2dNaive(x, w, spec)));

        for (kernels::Isa isa : isas) {
            kernels::setActive(isa);
            for (int threads : kThreadCounts) {
                SCOPED_TRACE(std::string(kernels::isaName(isa)) +
                             "/t" + std::to_string(threads));
                ThreadPool::setGlobalThreads(threads);
                EXPECT_TRUE(tensor::conv2d(x, w, spec).equals(ref));
            }
        }
    }
}

TEST_F(KernelDispatch, ConvGradsBitIdenticalAcrossIsasAndThreads)
{
    const auto isas = kernels::availableIsas();
    for (const auto &cs : kConvCases) {
        SCOPED_TRACE(cs.label());
        Rng rng(4000 + cs.c + 13 * cs.w + 5 * cs.kw);
        const Tensor x = Tensor::randn({cs.n, cs.c, cs.h, cs.w}, rng);
        const Tensor w =
            Tensor::randn({cs.f, cs.c, cs.kh, cs.kw}, rng);
        const ConvSpec spec{cs.stride, cs.pad};
        const std::int64_t oh = tensor::convOutDim(cs.h, cs.kh, spec);
        const std::int64_t ow = tensor::convOutDim(cs.w, cs.kw, spec);
        const Tensor dy = Tensor::randn({cs.n, cs.f, oh, ow}, rng);

        kernels::setActive(kernels::Isa::Scalar);
        ThreadPool::setGlobalThreads(1);
        const Tensor refDx =
            tensor::conv2dInputGrad(dy, w, x.shape(), spec);
        const Tensor refDw =
            tensor::conv2dWeightGrad(dy, x, w.shape(), spec);
        EXPECT_TRUE(refDx.equals(
            tensor::conv2dInputGradNaive(dy, w, x.shape(), spec)));
        EXPECT_TRUE(refDw.equals(
            tensor::conv2dWeightGradNaive(dy, x, w.shape(), spec)));

        for (kernels::Isa isa : isas) {
            kernels::setActive(isa);
            for (int threads : kThreadCounts) {
                SCOPED_TRACE(std::string(kernels::isaName(isa)) +
                             "/t" + std::to_string(threads));
                ThreadPool::setGlobalThreads(threads);
                EXPECT_TRUE(
                    tensor::conv2dInputGrad(dy, w, x.shape(), spec)
                        .equals(refDx));
                EXPECT_TRUE(
                    tensor::conv2dWeightGrad(dy, x, w.shape(), spec)
                        .equals(refDw));
            }
        }
    }
}

TEST_F(KernelDispatch, MatmulBitIdenticalAcrossIsasAndThreads)
{
    const std::vector<std::array<std::int64_t, 3>> shapes = {
        {1, 1, 1},  {2, 1, 17}, {5, 3, 1},  {4, 9, 8},
        {7, 5, 16}, {7, 5, 17}, {3, 64, 33}, {13, 11, 40},
    };
    const auto isas = kernels::availableIsas();
    for (const auto &[m, k, n] : shapes) {
        SCOPED_TRACE("m" + std::to_string(m) + "k" +
                     std::to_string(k) + "n" + std::to_string(n));
        Rng rng(5000 + m + 3 * k + 7 * n);
        const Tensor a = Tensor::randn({m, k}, rng);
        const Tensor b = Tensor::randn({k, n}, rng);

        kernels::setActive(kernels::Isa::Scalar);
        ThreadPool::setGlobalThreads(1);
        const Tensor ref = tensor::matmul(a, b);

        for (kernels::Isa isa : isas) {
            kernels::setActive(isa);
            for (int threads : kThreadCounts) {
                SCOPED_TRACE(std::string(kernels::isaName(isa)) +
                             "/t" + std::to_string(threads));
                ThreadPool::setGlobalThreads(threads);
                EXPECT_TRUE(tensor::matmul(a, b).equals(ref));
            }
        }
    }
}

/* ------------------------------------------------------------------ */
/* Arena scratch pool                                                 */
/* ------------------------------------------------------------------ */

TEST_F(KernelDispatch, ArenaReusesBuffersAndCountsHonestly)
{
    arena::trim();
    const auto s0 = arena::stats();
    {
        auto lease = arena::scratchFloats(1024, false);
        EXPECT_GE(lease.size(), 1024u);
        ASSERT_NE(lease.data(), nullptr);
        lease.data()[0] = 1.0f;
        lease.data()[1023] = 2.0f;
    }
    auto s1 = arena::stats();
    EXPECT_EQ(s1.leases, s0.leases + 1);
    EXPECT_EQ(s1.misses, s0.misses + 1);
    EXPECT_EQ(s1.cachedBuffers, 1u);
    EXPECT_GE(s1.cachedBytes, 1024 * sizeof(float));

    // A smaller request is served from the cached buffer.
    {
        auto lease = arena::scratchFloats(512, false);
        EXPECT_EQ(lease.size(), 512u);
    }
    auto s2 = arena::stats();
    EXPECT_EQ(s2.leases, s1.leases + 1);
    EXPECT_EQ(s2.hits, s1.hits + 1);
    EXPECT_EQ(s2.cachedBuffers, 1u);

    arena::trim();
    auto s3 = arena::stats();
    EXPECT_EQ(s3.cachedBuffers, 0u);
    EXPECT_EQ(s3.cachedBytes, 0u);
    // trim() leaves the counters running.
    EXPECT_EQ(s3.leases, s2.leases);
}

TEST_F(KernelDispatch, ArenaZeroFillClearsRecycledMemory)
{
    arena::trim();
    {
        auto dirty = arena::scratchFloats(256, false);
        for (std::size_t i = 0; i < dirty.size(); ++i)
            dirty.data()[i] = 42.0f;
    }
    // Same buffer comes back; zero=true must wipe the old contents
    // (the im2col packing relies on exact zero padding).
    auto clean = arena::scratchFloats(256, true);
    const auto s = arena::stats();
    EXPECT_GE(s.hits, 1u);
    for (std::size_t i = 0; i < clean.size(); ++i)
        ASSERT_EQ(clean.data()[i], 0.0f) << "index " << i;
}

TEST_F(KernelDispatch, ArenaLeaseIsMovable)
{
    arena::trim();
    auto a = arena::scratchFloats(64, true);
    float *p = a.data();
    arena::ScratchLease b = std::move(a);
    EXPECT_EQ(b.data(), p);
    EXPECT_EQ(b.size(), 64u);
    EXPECT_EQ(a.size(), 0u);

    arena::ScratchLease c;
    c = std::move(b);
    EXPECT_EQ(c.data(), p);
    EXPECT_EQ(c.size(), 64u);
}

TEST_F(KernelDispatch, ArenaConcurrentLeasesAreDistinctBuffers)
{
    arena::trim();
    auto a = arena::scratchFloats(128, true);
    auto b = arena::scratchFloats(128, true);
    EXPECT_NE(a.data(), b.data());
    a.data()[0] = 1.0f;
    EXPECT_EQ(b.data()[0], 0.0f);
}

} // namespace
} // namespace inca
