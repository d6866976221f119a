/**
 * @file
 * Vectorized microkernels with runtime CPU dispatch.
 *
 * Every numeric hot loop the tensor layer (and the Monte-Carlo fault
 * sampler) runs is routed through a KernelSet: a table of function
 * pointers with one implementation per instruction set. Three sets
 * exist -- scalar (the kept reference), AVX2 (8-wide floats /
 * 4-wide doubles) and AVX-512 (16-wide / 8-wide) -- and the process
 * picks the widest one the CPU supports at first use.
 *
 * Determinism contract (the property every differential test pins):
 * all three implementations of every kernel produce BIT-IDENTICAL
 * results. The GEMM kernels vectorize across output columns only --
 * each output element still accumulates its k-products in the same
 * ascending serial order as the scalar loops, one multiply and one
 * add per step (no FMA contraction, which would change the rounding)
 * -- and the packing/scan kernels move or compare values without
 * arithmetic. Switching ISA can therefore never change simulator
 * output, only wall-clock.
 *
 * Selection order:
 *  1. kernels::setActive() (tests and the bench harness);
 *  2. the INCA_KERNEL_ISA environment variable ("scalar", "avx2",
 *     "avx512") -- naming an ISA the build or CPU lacks is fatal(),
 *     so a forced CI matrix leg can never silently fall back;
 *  3. the widest ISA the CPU supports.
 *
 * Observability: every call to kernels::active() bumps the
 * kernel.dispatch.<isa> metrics counter, so INCA_METRICS / --json
 * reports show exactly which path executed (and how often).
 */

#ifndef INCA_TENSOR_KERNELS_KERNELS_HH
#define INCA_TENSOR_KERNELS_KERNELS_HH

#include <cstdint>
#include <vector>

namespace inca {
namespace kernels {

/** Instruction sets a KernelSet can be built for. */
enum class Isa
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
};

/** Lower-case name used by INCA_KERNEL_ISA and the metrics family. */
const char *isaName(Isa isa);

/**
 * One ISA's implementation of every dispatched microkernel. All
 * implementations of one slot are bit-identical; only speed differs.
 */
struct KernelSet
{
    Isa isa = Isa::Scalar;
    const char *name = "scalar";

    /**
     * Blocked GEMM row range: C[i][j] += sum_k A[i][k] * B[k][j] for
     * i in [i0, i1). Accumulates every C element strictly in
     * ascending k order with separate multiply and add roundings --
     * the exact arithmetic of the scalar reference loops.
     */
    void (*gemmRowRange)(const float *a, std::int64_t lda,
                         const float *b, std::int64_t ldb, float *c,
                         std::int64_t ldc, std::int64_t i0,
                         std::int64_t i1, std::int64_t depth,
                         std::int64_t n);

    /** Contiguous row copy: dst[j] = src[j] for j in [0, count). */
    void (*copyRow)(float *dst, const float *src, std::int64_t count);

    /**
     * Strided gather: dst[j] = src[j * stride] for j in [0, count).
     * The im2col packing kernel for stride > 1 windows; @p stride
     * and @p count * stride must fit an int32 (asserted).
     */
    void (*gatherRow)(float *dst, const float *src, std::int64_t count,
                      std::int64_t stride);

    /**
     * Index of the first element with v[i] < threshold, or count.
     * The Monte-Carlo fault sampler's hot scan: at realistic bit
     * error rates almost every uniform draw is >= rate, so skipping
     * the misses 4/8 doubles at a time is the whole game.
     */
    std::int64_t (*scanBelow)(const double *v, std::int64_t count,
                              double threshold);
};

/**
 * The KernelSet for @p isa, or nullptr when the build or the CPU
 * does not provide it. The scalar set always exists.
 */
const KernelSet *kernelSet(Isa isa);

/** True when kernelSet(isa) != nullptr. */
bool isaAvailable(Isa isa);

/** Every ISA available in this process, widest last. */
std::vector<Isa> availableIsas();

/**
 * The active kernel set, resolving INCA_KERNEL_ISA / auto-detection
 * on first use. Bumps the kernel.dispatch.<isa> counter.
 */
const KernelSet &active();

/** The active ISA without bumping dispatch counters. */
Isa activeIsa();

/**
 * Force the active set (test / bench hook; the programmatic
 * equivalent of INCA_KERNEL_ISA). Panics when @p isa is unavailable
 * -- callers gate on isaAvailable().
 */
void setActive(Isa isa);

/** Drop any forced ISA and re-resolve env + auto-detection. */
void resetActive();

/**
 * Parse an INCA_KERNEL_ISA value. Returns true and sets @p out for
 * "scalar" / "avx2" / "avx512"; false for anything else. Exposed for
 * tests; dispatch itself fatal()s on unparseable values.
 */
bool parseIsa(const char *text, Isa &out);

} // namespace kernels
} // namespace inca

#endif // INCA_TENSOR_KERNELS_KERNELS_HH
