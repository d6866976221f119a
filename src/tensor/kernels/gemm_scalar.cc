/**
 * @file
 * Scalar reference kernels -- the kept ground truth.
 *
 * This translation unit is compiled with vectorization disabled (see
 * tensor/CMakeLists.txt): the reference must execute genuinely scalar
 * instructions so that (a) the differential rig compares the SIMD
 * paths against straight-line IEEE arithmetic and (b) the
 * BENCH_kernels.json speedup trajectory measures vector width, not
 * compiler mood. The GEMM body is the PR-1 blocked microkernel moved
 * verbatim out of tensor/ops.cc.
 */

#include "tensor/kernels/kernels.hh"

#include "common/logging.hh"

namespace inca {
namespace kernels {

namespace {

void
gemmRowRangeScalar(const float *a, std::int64_t lda, const float *b,
                   std::int64_t ldb, float *c, std::int64_t ldc,
                   std::int64_t i0, std::int64_t i1, std::int64_t depth,
                   std::int64_t n)
{
    std::int64_t i = i0;
    for (; i + 4 <= i1; i += 4) {
        const float *a0 = a + i * lda;
        const float *a1 = a0 + lda;
        const float *a2 = a1 + lda;
        const float *a3 = a2 + lda;
        float *c0 = c + i * ldc;
        float *c1 = c0 + ldc;
        float *c2 = c1 + ldc;
        float *c3 = c2 + ldc;
        for (std::int64_t k = 0; k < depth; ++k) {
            const float *br = b + k * ldb;
            const float v0 = a0[k], v1 = a1[k], v2 = a2[k], v3 = a3[k];
            for (std::int64_t j = 0; j < n; ++j) {
                const float bj = br[j];
                c0[j] += v0 * bj;
                c1[j] += v1 * bj;
                c2[j] += v2 * bj;
                c3[j] += v3 * bj;
            }
        }
    }
    for (; i < i1; ++i) {
        const float *ar = a + i * lda;
        float *cr = c + i * ldc;
        for (std::int64_t k = 0; k < depth; ++k) {
            const float v = ar[k];
            const float *br = b + k * ldb;
            for (std::int64_t j = 0; j < n; ++j)
                cr[j] += v * br[j];
        }
    }
}

void
copyRowScalar(float *dst, const float *src, std::int64_t count)
{
    for (std::int64_t j = 0; j < count; ++j)
        dst[j] = src[j];
}

void
gatherRowScalar(float *dst, const float *src, std::int64_t count,
                std::int64_t stride)
{
    inca_assert(stride > 0 && count * stride <= INT32_MAX,
                "gatherRow index overflow: count %lld stride %lld",
                (long long)count, (long long)stride);
    for (std::int64_t j = 0; j < count; ++j)
        dst[j] = src[j * stride];
}

std::int64_t
scanBelowScalar(const double *v, std::int64_t count, double threshold)
{
    for (std::int64_t i = 0; i < count; ++i)
        if (v[i] < threshold)
            return i;
    return count;
}

} // namespace

/** Looked up by dispatch.cc; not part of the public header. */
extern const KernelSet kScalarKernels;
const KernelSet kScalarKernels = {
    Isa::Scalar,     "scalar",         &gemmRowRangeScalar,
    &copyRowScalar,  &gatherRowScalar, &scanBelowScalar,
};

} // namespace kernels
} // namespace inca
