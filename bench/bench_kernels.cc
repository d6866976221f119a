/**
 * @file
 * Microkernel perf trajectory: every dispatched kernel, every ISA.
 *
 * Unlike the paper-figure benches this one times its work: the
 * measurement protocol is the point. Every
 * benchmark runs kWarmup discarded repetitions, then kReps timed
 * ones with per-rep end timestamps, and reports the kTrim-trimmed
 * mean -- the exact statistic bench_json.hh stores and the CI gate
 * compares. Seeds are fixed, iteration counts are fixed, and the
 * kernel ISA is forced per measurement via kernels::setActive().
 *
 * ISAs are INTERLEAVED at repetition granularity: rep i of the
 * scalar, AVX2 and AVX-512 variants of one workload run
 * back-to-back, milliseconds apart, so slow drift in the host's
 * throughput (noisy neighbours, thermal/steal state -- minutes-scale
 * effects on shared runners) lands equally in every ISA's samples
 * and cancels out of the speedup ratios the regression gate
 * compares.
 *
 *   bench_kernels --json BENCH_kernels.json
 *
 * The headline series: gemm speedup vs the scalar reference, per ISA
 * -- the measured answer to "was the SIMD overhaul worth it".
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_json.hh"
#include "common/env.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "reliability/fault_model.hh"
#include "tensor/kernels/kernels.hh"
#include "tensor/ops.hh"
#include "tensor/tensor.hh"

namespace inca {
namespace {

constexpr int kWarmup = 2;
constexpr int kReps = 15;
constexpr int kTrim = 3;

using Clock = std::chrono::steady_clock;
const Clock::time_point gEpoch = Clock::now();

std::int64_t
sinceEpochUs()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - gEpoch)
        .count();
}

/** One dispatched workload, measurable under any KernelSet. */
struct Workload
{
    std::string name;
    int inner; ///< fn calls per timed repetition
    std::function<void(const kernels::KernelSet &)> fn;
};

/**
 * Time one repetition: @p inner calls of @p fn under @p isa, ns per
 * call. The workload must write to heap buffers that outlive the
 * call so nothing is optimized away.
 */
double
timeRep(const Workload &w, kernels::Isa isa)
{
    kernels::setActive(isa);
    const kernels::KernelSet &ks = *kernels::kernelSet(isa);
    const Clock::time_point t0 = Clock::now();
    for (int it = 0; it < w.inner; ++it)
        w.fn(ks);
    return std::chrono::duration<double, std::nano>(Clock::now() -
                                                    t0)
               .count() /
           double(w.inner);
}

/**
 * Measure @p w under every ISA in @p isas, interleaving them within
 * each repetition, and record one BenchRun per ISA.
 */
void
runWorkload(const Workload &w, const std::vector<kernels::Isa> &isas)
{
    std::map<kernels::Isa, bench::BenchRun> runs;
    for (kernels::Isa isa : isas) {
        bench::BenchRun &run = runs[isa];
        run.name = w.name;
        run.isa = kernels::isaName(isa);
        run.warmup = kWarmup;
        run.trim = kTrim;
    }
    for (int rep = 0; rep < kWarmup + kReps; ++rep) {
        for (kernels::Isa isa : isas) {
            const double ns = timeRep(w, isa);
            if (rep < kWarmup)
                continue;
            runs[isa].samplesNs.push_back(ns);
            runs[isa].timestampsUs.push_back(sinceEpochUs());
        }
    }
    double scalarNs = 0.0;
    for (kernels::Isa isa : isas) {
        bench::BenchRun &run = runs[isa];
        const double mean = bench::trimmedMean(run.samplesNs, kTrim);
        std::printf("  %-28s %-7s %12.0f ns\n", w.name.c_str(),
                    run.isa.c_str(), mean);
        if (isa == kernels::Isa::Scalar)
            scalarNs = mean;
        else if (mean > 0.0)
            bench::JsonReport::instance().addPoint(
                "speedup_vs_scalar",
                w.name + "/" + kernels::isaName(isa),
                scalarNs / mean);
        bench::JsonReport::instance().addBenchmark(std::move(run));
    }
}

void
runKernelBenches()
{
    // Raw-kernel operands (fixed seed; every ISA chews the same
    // bytes, and the buffers outlive every measurement).
    Rng rng(kDefaultSeed);
    const std::int64_t M = 128, K = 128, N = 128;
    std::vector<float> a(std::size_t(M * K)), b(std::size_t(K * N)),
        c(std::size_t(M * N));
    for (auto &v : a)
        v = float(rng.uniform(-1.0, 1.0));
    for (auto &v : b)
        v = float(rng.uniform(-1.0, 1.0));

    const std::int64_t kCopy = 65536;
    std::vector<float> src(std::size_t(kCopy * 2), 0.0f);
    std::vector<float> dst(std::size_t(kCopy), 0.0f);
    for (auto &v : src)
        v = float(rng.uniform(-1.0, 1.0));

    std::vector<double> uniforms(65536);
    SplitMix64 sm(7);
    for (auto &v : uniforms)
        v = sm.uniform();

    // Tensor-op operands: a conv layer with stride, padding, and a
    // non-multiple-of-vector width, so packing tails get exercised.
    Rng trng(123);
    const tensor::Tensor x =
        tensor::Tensor::randn({4, 8, 28, 28}, trng);
    const tensor::Tensor w =
        tensor::Tensor::randn({16, 8, 5, 5}, trng);
    const tensor::ConvSpec spec{1, 2};
    const tensor::Tensor y = tensor::conv2d(x, w, spec);

    const reliability::FaultSpec fspec = [] {
        reliability::FaultSpec f;
        f.hardBer0 = 1e-3;
        f.seed = 99;
        return f;
    }();
    const reliability::FaultModel fmodel(fspec, 0.0);

    const std::vector<Workload> workloads = {
        {"gemm_m128_k128_n128", 2,
         [&](const kernels::KernelSet &ks) {
             std::fill(c.begin(), c.end(), 0.0f);
             ks.gemmRowRange(a.data(), K, b.data(), N, c.data(), N,
                             0, M, K, N);
         }},
        {"copy_row_64k", 100,
         [&](const kernels::KernelSet &ks) {
             ks.copyRow(dst.data(), src.data(), kCopy);
         }},
        {"gather_row_32k_stride2", 100,
         [&](const kernels::KernelSet &ks) {
             ks.gatherRow(dst.data(), src.data(), kCopy / 2, 2);
         }},
        {"scan_below_64k", 100,
         [&](const kernels::KernelSet &ks) {
             volatile std::int64_t sink = ks.scanBelow(
                 uniforms.data(), std::int64_t(uniforms.size()),
                 1e-9);
             (void)sink;
         }},
        // The tensor/fault workloads dispatch internally via
        // kernels::active(); setActive() in timeRep routes them.
        {"conv2d_fwd_4x8x28x28", 1,
         [&](const kernels::KernelSet &) {
             (void)tensor::conv2d(x, w, spec);
         }},
        {"conv2d_input_grad", 1,
         [&](const kernels::KernelSet &) {
             (void)tensor::conv2dInputGrad(y, w, x.shape(), spec);
         }},
        {"conv2d_weight_grad", 1,
         [&](const kernels::KernelSet &) {
             (void)tensor::conv2dWeightGrad(y, x, w.shape(), spec);
         }},
        {"fault_sample_256x256", 4,
         [&](const kernels::KernelSet &) {
             (void)fmodel.sample(256, 256, 1);
         }},
    };

    const std::vector<kernels::Isa> isas = kernels::availableIsas();
    for (const Workload &w : workloads)
        runWorkload(w, isas);
    kernels::resetActive();

    // ISA-independent: the batched splitmix64 stream vs the same
    // draws made one next() call at a time -- interleaved the same
    // way so their ratio is drift-free too.
    std::vector<double> batch(65536);
    const std::vector<Workload> rngWorkloads = {
        {"splitmix_uniform_batch_64k", 20,
         [&](const kernels::KernelSet &) {
             SplitMix64 gen(kDefaultSeed);
             gen.uniformBatch(batch.data(), batch.size());
         }},
        {"splitmix_uniform_seq_64k", 20,
         [&](const kernels::KernelSet &) {
             SplitMix64 gen(kDefaultSeed);
             for (auto &v : batch)
                 v = gen.uniform();
         }},
    };
    for (const Workload &w : rngWorkloads)
        runWorkload(w, {kernels::Isa::Scalar});
    kernels::resetActive();
}

} // namespace
} // namespace inca

int
main(int argc, char **argv)
{
    inca::checkEnvironment();
    const std::string jsonPath = inca::bench::benchJsonPath(argc, argv);
    std::printf("=== kernel microbenchmarks (warmup %d, reps %d, "
                "trim %d, ISA-interleaved) ===\n",
                inca::kWarmup, inca::kReps, inca::kTrim);
    inca::runKernelBenches();
    if (!jsonPath.empty())
        inca::bench::JsonReport::instance().write(jsonPath);
    return 0;
}
