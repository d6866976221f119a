#include "tensor/ops.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.hh"
#include "tensor/kernels/kernels.hh"

namespace inca {
namespace tensor {

std::int64_t
convOutDim(std::int64_t in, int k, const ConvSpec &spec)
{
    const std::int64_t padded = in + 2 * spec.pad;
    inca_assert(padded >= k, "window %d larger than padded input %lld", k,
                (long long)padded);
    return (padded - k) / spec.stride + 1;
}

namespace {

// The blocked GEMM row-range microkernel (deterministic ascending-k
// accumulation per C element, the property cross-ISA bit-identity
// rests on) lives in tensor/kernels/, one implementation per
// instruction set; kernels::active() picks the widest one the CPU
// supports. Callers hoist the KernelSet once per op so a conv counts
// as one dispatch.

/**
 * Shared convolution engine: y[in][of][pix] = sum_k wFlat[of][k] *
 * colsT[in][k][pix], where colsT is the transposed im2col of one
 * image (k = (ic, kr, kc) ascending -- the naive accumulation order)
 * and wFlat is the [F, C*KH*KW] row-major view of the kernels.
 *
 * It packs colsT for all images, then runs one GEMM per image.
 * Out-of-window taps stay exact zeros, reproducing the naive loops'
 * skipped contributions.
 *
 * @p oh / @p ow are passed in rather than derived so callers can
 * request asymmetric overhang (transposed convolution needs up to
 * stride-1 extra rows at the bottom/right -- "output padding"); the
 * bounds checks treat any overhang as zeros.
 */
Tensor
convViaGemm(const float *xData, std::int64_t n, std::int64_t c,
            std::int64_t h, std::int64_t wd, const float *wFlat,
            std::int64_t f, std::int64_t kh, std::int64_t kw,
            int stride, int padH, int padW, std::int64_t oh,
            std::int64_t ow)
{
    const std::int64_t depth = c * kh * kw;
    const std::int64_t pix = oh * ow;
    const kernels::KernelSet &ks = kernels::active();

    // Packed im2col workspace, zero-filled: out-of-window taps must
    // stay exact zeros. Each (image, k) row copies its valid column
    // range in one shot -- the window bounds are affine in ocol, so
    // the per-element bounds checks of the scalar era collapse into
    // an interval [jBegin, jEnd) and one copyRow/gatherRow call.
    std::vector<float> colsT(std::size_t(n * depth * pix));
    for (std::int64_t idx = 0; idx < n * depth; ++idx) {
        const std::int64_t in = idx / depth;
        const std::int64_t k = idx % depth;
        const std::int64_t ic = k / (kh * kw);
        const std::int64_t kr = (k / kw) % kh;
        const std::int64_t kc = k % kw;
        const float *xp = xData + ((in * c + ic) * h) * wd;
        float *dst = colsT.data() + idx * pix;

        // Valid ocol satisfy 0 <= ocol*stride + off < wd.
        const std::int64_t off = kc - padW;
        const std::int64_t jBegin =
            off >= 0 ? 0 : (-off + stride - 1) / stride;
        const std::int64_t jEnd =
            wd - 1 - off < 0 ? 0
                             : std::min(ow, (wd - 1 - off) / stride + 1);
        if (jBegin >= jEnd)
            continue;
        const std::int64_t count = jEnd - jBegin;

        for (std::int64_t orow = 0; orow < oh; ++orow) {
            const std::int64_t ir = orow * stride + kr - padH;
            if (ir < 0 || ir >= h)
                continue;
            const float *src = xp + ir * wd + jBegin * stride + off;
            float *drow = dst + orow * ow + jBegin;
            if (stride == 1)
                ks.copyRow(drow, src, count);
            else
                ks.gatherRow(drow, src, count, stride);
        }
    }

    Tensor y({n, f, oh, ow});
    for (std::int64_t in = 0; in < n; ++in)
        ks.gemmRowRange(wFlat, depth, colsT.data() + in * depth * pix,
                        pix, y.data() + in * f * pix, pix, 0, f, depth,
                        pix);
    return y;
}

} // namespace

Tensor
conv2dNaive(const Tensor &x, const Tensor &w, const ConvSpec &spec)
{
    inca_assert(x.rank() == 4 && w.rank() == 4, "conv2d expects 4-D x/w");
    const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                       wd = x.dim(3);
    const std::int64_t f = w.dim(0), kh = w.dim(2), kw = w.dim(3);
    inca_assert(w.dim(1) == c, "channel mismatch: x has %lld, w has %lld",
                (long long)c, (long long)w.dim(1));
    const std::int64_t oh = convOutDim(h, int(kh), spec);
    const std::int64_t ow = convOutDim(wd, int(kw), spec);

    Tensor y({n, f, oh, ow});
    for (std::int64_t in = 0; in < n; ++in) {
        for (std::int64_t of = 0; of < f; ++of) {
            for (std::int64_t orow = 0; orow < oh; ++orow) {
                for (std::int64_t ocol = 0; ocol < ow; ++ocol) {
                    float acc = 0.0f;
                    for (std::int64_t ic = 0; ic < c; ++ic) {
                        for (std::int64_t kr = 0; kr < kh; ++kr) {
                            const std::int64_t ir =
                                orow * spec.stride + kr - spec.pad;
                            if (ir < 0 || ir >= h)
                                continue;
                            for (std::int64_t kc = 0; kc < kw; ++kc) {
                                const std::int64_t icl =
                                    ocol * spec.stride + kc - spec.pad;
                                if (icl < 0 || icl >= wd)
                                    continue;
                                acc += x.at(in, ic, ir, icl) *
                                       w.at(of, ic, kr, kc);
                            }
                        }
                    }
                    y.at(in, of, orow, ocol) = acc;
                }
            }
        }
    }
    return y;
}

Tensor
conv2d(const Tensor &x, const Tensor &w, const ConvSpec &spec)
{
    inca_assert(x.rank() == 4 && w.rank() == 4, "conv2d expects 4-D x/w");
    inca_assert(w.dim(1) == x.dim(1),
                "channel mismatch: x has %lld, w has %lld",
                (long long)x.dim(1), (long long)w.dim(1));
    // w is [F, C, KH, KW] row-major, i.e. already the [F, C*KH*KW]
    // weight matrix the GEMM wants -- one unrolled kernel per row,
    // exactly how WS crossbars lay kernels out (one kernel per
    // bitline).
    return convViaGemm(x.data(), x.dim(0), x.dim(1), x.dim(2),
                       x.dim(3), w.data(), w.dim(0), w.dim(2),
                       w.dim(3), spec.stride, spec.pad, spec.pad,
                       convOutDim(x.dim(2), int(w.dim(2)), spec),
                       convOutDim(x.dim(3), int(w.dim(3)), spec));
}

Tensor
conv2dInputGradNaive(const Tensor &dy, const Tensor &w,
                     const std::vector<std::int64_t> &xShape,
                     const ConvSpec &spec)
{
    inca_assert(dy.rank() == 4 && w.rank() == 4 && xShape.size() == 4,
                "conv2dInputGrad expects 4-D operands");
    const std::int64_t n = dy.dim(0), f = dy.dim(1), oh = dy.dim(2),
                       ow = dy.dim(3);
    const std::int64_t c = xShape[1], h = xShape[2], wd = xShape[3];
    const std::int64_t kh = w.dim(2), kw = w.dim(3);
    inca_assert(w.dim(0) == f && w.dim(1) == c, "shape mismatch");

    Tensor dx(xShape);
    for (std::int64_t in = 0; in < n; ++in) {
        for (std::int64_t of = 0; of < f; ++of) {
            for (std::int64_t orow = 0; orow < oh; ++orow) {
                for (std::int64_t ocol = 0; ocol < ow; ++ocol) {
                    const float g = dy.at(in, of, orow, ocol);
                    if (g == 0.0f)
                        continue;
                    for (std::int64_t ic = 0; ic < c; ++ic) {
                        for (std::int64_t kr = 0; kr < kh; ++kr) {
                            const std::int64_t ir =
                                orow * spec.stride + kr - spec.pad;
                            if (ir < 0 || ir >= h)
                                continue;
                            for (std::int64_t kc = 0; kc < kw; ++kc) {
                                const std::int64_t icl =
                                    ocol * spec.stride + kc - spec.pad;
                                if (icl < 0 || icl >= wd)
                                    continue;
                                dx.at(in, ic, ir, icl) +=
                                    g * w.at(of, ic, kr, kc);
                            }
                        }
                    }
                }
            }
        }
    }
    return dx;
}

Tensor
conv2dInputGrad(const Tensor &dy, const Tensor &w,
                const std::vector<std::int64_t> &xShape,
                const ConvSpec &spec)
{
    inca_assert(dy.rank() == 4 && w.rank() == 4 && xShape.size() == 4,
                "conv2dInputGrad expects 4-D operands");
    const std::int64_t n = dy.dim(0), f = dy.dim(1), oh = dy.dim(2),
                       ow = dy.dim(3);
    const std::int64_t c = xShape[1], h = xShape[2], wd = xShape[3];
    const std::int64_t kh = w.dim(2), kw = w.dim(3);
    inca_assert(w.dim(0) == f && w.dim(1) == c, "shape mismatch");

    // Transposed-convolution route: dilate dy by the stride, flip the
    // kernel spatially, swap its filter/channel axes, and push it
    // through the forward GEMM engine at stride 1, asking for exactly
    // x's spatial dims (the engine zero-extends the bottom/right
    // overhang a non-tiling stride leaves). The engine's column order
    // (of ascending, then flipped taps ascending = orow, ocol
    // ascending) reproduces the naive scatter's accumulation order
    // exactly; the dilation/padding zeros contribute exact zeros.
    // Padding beyond the kernel has no transposed-convolution form;
    // it takes the naive loops.
    const int padH = int(kh) - 1 - spec.pad;
    const int padW = int(kw) - 1 - spec.pad;
    if (padH < 0 || padW < 0)
        return conv2dInputGradNaive(dy, w, xShape, spec);

    const float *srcData = dy.data();
    std::int64_t srcH = oh, srcW = ow;
    // Zero-filled: the gaps between scattered dy taps must be exact
    // zeros (they are the dilation).
    std::vector<float> dilated;
    if (spec.stride > 1) {
        const std::int64_t hd = (oh - 1) * spec.stride + 1;
        const std::int64_t wdd = (ow - 1) * spec.stride + 1;
        dilated.resize(std::size_t(n * f * hd * wdd));
        for (std::int64_t plane = 0; plane < n * f; ++plane) {
            const float *s = dy.data() + plane * oh * ow;
            float *d = dilated.data() + plane * hd * wdd;
            for (std::int64_t orow = 0; orow < oh; ++orow)
                for (std::int64_t ocol = 0; ocol < ow; ++ocol)
                    d[orow * spec.stride * wdd + ocol * spec.stride] =
                        s[orow * ow + ocol];
        }
        srcData = dilated.data();
        srcH = hd;
        srcW = wdd;
    }

    // wT[ic][of][a][b] = w[of][ic][kh-1-a][kw-1-b].
    std::vector<float> wT(std::size_t(c * f * kh * kw));
    for (std::int64_t cf = 0; cf < c * f; ++cf) {
        const std::int64_t ic = cf / f;
        const std::int64_t of = cf % f;
        const float *wsrc = w.data() + (of * c + ic) * kh * kw;
        float *wdst = wT.data() + cf * kh * kw;
        for (std::int64_t a = 0; a < kh; ++a)
            for (std::int64_t b = 0; b < kw; ++b)
                wdst[a * kw + b] = wsrc[(kh - 1 - a) * kw + (kw - 1 - b)];
    }

    return convViaGemm(srcData, n, f, srcH, srcW, wT.data(), c, kh,
                       kw, 1, padH, padW, h, wd);
}

Tensor
conv2dWeightGradNaive(const Tensor &dy, const Tensor &x,
                      const std::vector<std::int64_t> &wShape,
                      const ConvSpec &spec)
{
    inca_assert(dy.rank() == 4 && x.rank() == 4 && wShape.size() == 4,
                "conv2dWeightGrad expects 4-D operands");
    const std::int64_t n = dy.dim(0), f = dy.dim(1), oh = dy.dim(2),
                       ow = dy.dim(3);
    const std::int64_t c = x.dim(1), h = x.dim(2), wd = x.dim(3);
    const std::int64_t kh = wShape[2], kw = wShape[3];
    inca_assert(wShape[0] == f && wShape[1] == c, "shape mismatch");

    Tensor dw(wShape);
    for (std::int64_t in = 0; in < n; ++in) {
        for (std::int64_t of = 0; of < f; ++of) {
            for (std::int64_t orow = 0; orow < oh; ++orow) {
                for (std::int64_t ocol = 0; ocol < ow; ++ocol) {
                    const float g = dy.at(in, of, orow, ocol);
                    if (g == 0.0f)
                        continue;
                    for (std::int64_t ic = 0; ic < c; ++ic) {
                        for (std::int64_t kr = 0; kr < kh; ++kr) {
                            const std::int64_t ir =
                                orow * spec.stride + kr - spec.pad;
                            if (ir < 0 || ir >= h)
                                continue;
                            for (std::int64_t kc = 0; kc < kw; ++kc) {
                                const std::int64_t icl =
                                    ocol * spec.stride + kc - spec.pad;
                                if (icl < 0 || icl >= wd)
                                    continue;
                                dw.at(of, ic, kr, kc) +=
                                    g * x.at(in, ic, ir, icl);
                            }
                        }
                    }
                }
            }
        }
    }
    return dw;
}

Tensor
conv2dWeightGrad(const Tensor &dy, const Tensor &x,
                 const std::vector<std::int64_t> &wShape,
                 const ConvSpec &spec)
{
    inca_assert(dy.rank() == 4 && x.rank() == 4 && wShape.size() == 4,
                "conv2dWeightGrad expects 4-D operands");
    const std::int64_t n = dy.dim(0), f = dy.dim(1), oh = dy.dim(2),
                       ow = dy.dim(3);
    const std::int64_t c = x.dim(1);
    const std::int64_t kh = wShape[2], kw = wShape[3];
    inca_assert(wShape[0] == f && wShape[1] == c, "shape mismatch");

    // dw[of][k] = sum_row dyT[of][row] * cols[row][k], rows ascending
    // in (image, orow, ocol) -- the naive loops' contribution order
    // for every dw element (the of loop sits between in and orow
    // there, which cannot reorder a fixed of's contributions).
    const std::int64_t pix = oh * ow;
    const std::int64_t rows = n * pix;
    const std::int64_t depth = c * kh * kw;

    const Tensor cols = im2col(x, int(kh), int(kw), spec); // [rows, depth]
    const kernels::KernelSet &ks = kernels::active();

    // dyT[of][row]: gather the NCHW dy into filter-major order.
    std::vector<float> dyT(std::size_t(f * rows));
    for (std::int64_t of = 0; of < f; ++of)
        for (std::int64_t in = 0; in < n; ++in)
            ks.copyRow(dyT.data() + of * rows + in * pix,
                       dy.data() + (in * f + of) * pix, pix);

    Tensor dw(wShape); // [f][depth] row-major, zero-filled
    ks.gemmRowRange(dyT.data(), rows, cols.data(), depth, dw.data(),
                    depth, 0, f, rows, depth);
    return dw;
}

Tensor
depthwiseConv2d(const Tensor &x, const Tensor &w, const ConvSpec &spec)
{
    inca_assert(x.rank() == 4 && w.rank() == 3,
                "depthwiseConv2d expects x rank 4, w rank 3");
    const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                       wd = x.dim(3);
    const std::int64_t kh = w.dim(1), kw = w.dim(2);
    inca_assert(w.dim(0) == c, "depthwise channel mismatch");
    const std::int64_t oh = convOutDim(h, int(kh), spec);
    const std::int64_t ow = convOutDim(wd, int(kw), spec);

    Tensor y({n, c, oh, ow});
    for (std::int64_t plane = 0; plane < n * c; ++plane) {
        const std::int64_t in = plane / c;
        const std::int64_t ic = plane % c;
        for (std::int64_t orow = 0; orow < oh; ++orow) {
            for (std::int64_t ocol = 0; ocol < ow; ++ocol) {
                float acc = 0.0f;
                for (std::int64_t kr = 0; kr < kh; ++kr) {
                    const std::int64_t ir =
                        orow * spec.stride + kr - spec.pad;
                    if (ir < 0 || ir >= h)
                        continue;
                    for (std::int64_t kc = 0; kc < kw; ++kc) {
                        const std::int64_t icl =
                            ocol * spec.stride + kc - spec.pad;
                        if (icl < 0 || icl >= wd)
                            continue;
                        acc += x.at(in, ic, ir, icl) * w.at(ic, kr, kc);
                    }
                }
                y.at(in, ic, orow, ocol) = acc;
            }
        }
    }
    return y;
}

Tensor
depthwiseConv2dInputGrad(const Tensor &dy, const Tensor &w,
                         const std::vector<std::int64_t> &xShape,
                         const ConvSpec &spec)
{
    const std::int64_t n = dy.dim(0), c = dy.dim(1), oh = dy.dim(2),
                       ow = dy.dim(3);
    const std::int64_t h = xShape[2], wd = xShape[3];
    const std::int64_t kh = w.dim(1), kw = w.dim(2);

    Tensor dx(xShape);
    for (std::int64_t plane = 0; plane < n * c; ++plane) {
        const std::int64_t in = plane / c;
        const std::int64_t ic = plane % c;
        for (std::int64_t orow = 0; orow < oh; ++orow) {
            for (std::int64_t ocol = 0; ocol < ow; ++ocol) {
                const float g = dy.at(in, ic, orow, ocol);
                if (g == 0.0f)
                    continue;
                for (std::int64_t kr = 0; kr < kh; ++kr) {
                    const std::int64_t ir =
                        orow * spec.stride + kr - spec.pad;
                    if (ir < 0 || ir >= h)
                        continue;
                    for (std::int64_t kc = 0; kc < kw; ++kc) {
                        const std::int64_t icl =
                            ocol * spec.stride + kc - spec.pad;
                        if (icl < 0 || icl >= wd)
                            continue;
                        dx.at(in, ic, ir, icl) += g * w.at(ic, kr, kc);
                    }
                }
            }
        }
    }
    return dx;
}

Tensor
depthwiseConv2dWeightGrad(const Tensor &dy, const Tensor &x,
                          const std::vector<std::int64_t> &wShape,
                          const ConvSpec &spec)
{
    const std::int64_t n = dy.dim(0), c = dy.dim(1), oh = dy.dim(2),
                       ow = dy.dim(3);
    const std::int64_t h = x.dim(2), wd = x.dim(3);
    const std::int64_t kh = wShape[1], kw = wShape[2];

    Tensor dw(wShape);
    // Each channel's dw slice accumulates over (image, orow, ocol) in
    // the naive order.
    for (std::int64_t ic = 0; ic < c; ++ic) {
        for (std::int64_t in = 0; in < n; ++in) {
            for (std::int64_t orow = 0; orow < oh; ++orow) {
                for (std::int64_t ocol = 0; ocol < ow; ++ocol) {
                    const float g = dy.at(in, ic, orow, ocol);
                    if (g == 0.0f)
                        continue;
                    for (std::int64_t kr = 0; kr < kh; ++kr) {
                        const std::int64_t ir =
                            orow * spec.stride + kr - spec.pad;
                        if (ir < 0 || ir >= h)
                            continue;
                        for (std::int64_t kc = 0; kc < kw; ++kc) {
                            const std::int64_t icl =
                                ocol * spec.stride + kc - spec.pad;
                            if (icl < 0 || icl >= wd)
                                continue;
                            dw.at(ic, kr, kc) +=
                                g * x.at(in, ic, ir, icl);
                        }
                    }
                }
            }
        }
    }
    return dw;
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    inca_assert(a.rank() == 2 && b.rank() == 2, "matmul expects rank 2");
    const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    inca_assert(b.dim(0) == k, "matmul inner dims differ: %lld vs %lld",
                (long long)k, (long long)b.dim(0));

    Tensor y({m, n});
    const kernels::KernelSet &ks = kernels::active();
    ks.gemmRowRange(a.data(), k, b.data(), n, y.data(), n, 0, m, k, n);
    return y;
}

Tensor
transpose(const Tensor &a)
{
    inca_assert(a.rank() == 2, "transpose expects rank 2");
    const std::int64_t m = a.dim(0), n = a.dim(1);
    Tensor t({n, m});
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j)
            t.at(j, i) = a.at(i, j);
    return t;
}

Tensor
im2col(const Tensor &x, int kh, int kw, const ConvSpec &spec)
{
    inca_assert(x.rank() == 4, "im2col expects rank 4");
    const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                       wd = x.dim(3);
    const std::int64_t oh = convOutDim(h, kh, spec);
    const std::int64_t ow = convOutDim(wd, kw, spec);
    const std::int64_t depth = c * std::int64_t(kh) * kw;

    Tensor cols({n * oh * ow, depth});
    for (std::int64_t row = 0; row < n * oh * ow; ++row) {
        const std::int64_t in = row / (oh * ow);
        const std::int64_t orow = (row / ow) % oh;
        const std::int64_t ocol = row % ow;
        float *dst = cols.data() + row * depth;
        std::int64_t col = 0;
        for (std::int64_t ic = 0; ic < c; ++ic) {
            const float *xp = x.data() + ((in * c + ic) * h) * wd;
            for (std::int64_t kr = 0; kr < kh; ++kr) {
                const std::int64_t ir =
                    orow * spec.stride + kr - spec.pad;
                for (std::int64_t kc = 0; kc < kw; ++kc, ++col) {
                    const std::int64_t icl =
                        ocol * spec.stride + kc - spec.pad;
                    if (ir < 0 || ir >= h || icl < 0 || icl >= wd)
                        continue;
                    dst[col] = xp[ir * wd + icl];
                }
            }
        }
    }
    return cols;
}

Tensor
fc(const Tensor &x, const Tensor &w, const Tensor &bias)
{
    inca_assert(x.rank() == 2 && w.rank() == 2, "fc expects rank-2 x/w");
    Tensor y = matmul(x, w);
    if (bias.size() > 0) {
        inca_assert(bias.size() == w.dim(1), "bias size mismatch");
        for (std::int64_t i = 0; i < y.dim(0); ++i)
            for (std::int64_t j = 0; j < y.dim(1); ++j)
                y.at(i, j) += bias[j];
    }
    return y;
}

Tensor
fcInputGrad(const Tensor &dy, const Tensor &w)
{
    return matmul(dy, transpose(w));
}

Tensor
fcWeightGrad(const Tensor &dy, const Tensor &x)
{
    return matmul(transpose(x), dy);
}

Tensor
fcBiasGrad(const Tensor &dy)
{
    Tensor db({dy.dim(1)});
    for (std::int64_t i = 0; i < dy.dim(0); ++i)
        for (std::int64_t j = 0; j < dy.dim(1); ++j)
            db[j] += dy.at(i, j);
    return db;
}

Tensor
relu(const Tensor &x)
{
    Tensor y(x.shape());
    for (std::int64_t i = 0; i < x.size(); ++i)
        y[i] = std::max(0.0f, x[i]);
    return y;
}

Tensor
reluGrad(const Tensor &dy, const Tensor &x)
{
    inca_assert(dy.shape() == x.shape(), "reluGrad shape mismatch");
    Tensor dx(x.shape());
    for (std::int64_t i = 0; i < x.size(); ++i)
        dx[i] = x[i] > 0.0f ? dy[i] : 0.0f;
    return dx;
}

Tensor
sigmoid(const Tensor &x)
{
    Tensor y(x.shape());
    for (std::int64_t i = 0; i < x.size(); ++i)
        y[i] = 1.0f / (1.0f + std::exp(-x[i]));
    return y;
}

Tensor
sigmoidGrad(const Tensor &dy, const Tensor &y)
{
    inca_assert(dy.shape() == y.shape(), "sigmoidGrad shape mismatch");
    Tensor dx(y.shape());
    for (std::int64_t i = 0; i < y.size(); ++i)
        dx[i] = dy[i] * y[i] * (1.0f - y[i]);
    return dx;
}

Tensor
tanhAct(const Tensor &x)
{
    Tensor y(x.shape());
    for (std::int64_t i = 0; i < x.size(); ++i)
        y[i] = std::tanh(x[i]);
    return y;
}

Tensor
tanhGrad(const Tensor &dy, const Tensor &y)
{
    inca_assert(dy.shape() == y.shape(), "tanhGrad shape mismatch");
    Tensor dx(y.shape());
    for (std::int64_t i = 0; i < y.size(); ++i)
        dx[i] = dy[i] * (1.0f - y[i] * y[i]);
    return dx;
}

PoolResult
maxPool2d(const Tensor &x, int k, const ConvSpec &spec)
{
    inca_assert(x.rank() == 4, "maxPool2d expects rank 4");
    const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                       wd = x.dim(3);
    const std::int64_t oh = convOutDim(h, k, spec);
    const std::int64_t ow = convOutDim(wd, k, spec);

    PoolResult res{Tensor({n, c, oh, ow}), Tensor({n, c, oh, ow})};
    for (std::int64_t plane = 0; plane < n * c; ++plane) {
        const std::int64_t in = plane / c;
        const std::int64_t ic = plane % c;
        for (std::int64_t orow = 0; orow < oh; ++orow) {
            for (std::int64_t ocol = 0; ocol < ow; ++ocol) {
                float best = -std::numeric_limits<float>::infinity();
                std::int64_t bestIdx = -1;
                for (int kr = 0; kr < k; ++kr) {
                    const std::int64_t ir =
                        orow * spec.stride + kr - spec.pad;
                    if (ir < 0 || ir >= h)
                        continue;
                    for (int kc = 0; kc < k; ++kc) {
                        const std::int64_t icl =
                            ocol * spec.stride + kc - spec.pad;
                        if (icl < 0 || icl >= wd)
                            continue;
                        const float v = x.at(in, ic, ir, icl);
                        if (v > best) {
                            best = v;
                            bestIdx = ir * wd + icl;
                        }
                    }
                }
                inca_assert(bestIdx >= 0, "empty pooling window");
                res.output.at(in, ic, orow, ocol) = best;
                res.argmax.at(in, ic, orow, ocol) = float(bestIdx);
            }
        }
    }
    return res;
}

Tensor
maxPool2dGrad(const Tensor &dy, const Tensor &argmax,
              const std::vector<std::int64_t> &xShape, int k,
              const ConvSpec &spec)
{
    (void)k;
    (void)spec;
    inca_assert(dy.shape() == argmax.shape(),
                "maxPool2dGrad shape mismatch");
    const std::int64_t n = dy.dim(0), c = dy.dim(1), oh = dy.dim(2),
                       ow = dy.dim(3);
    const std::int64_t wd = xShape[3];

    Tensor dx(xShape);
    for (std::int64_t plane = 0; plane < n * c; ++plane) {
        const std::int64_t in = plane / c;
        const std::int64_t ic = plane % c;
        for (std::int64_t orow = 0; orow < oh; ++orow) {
            for (std::int64_t ocol = 0; ocol < ow; ++ocol) {
                const auto flat =
                    std::int64_t(argmax.at(in, ic, orow, ocol));
                dx.at(in, ic, flat / wd, flat % wd) +=
                    dy.at(in, ic, orow, ocol);
            }
        }
    }
    return dx;
}

Tensor
globalAvgPool(const Tensor &x)
{
    inca_assert(x.rank() == 4, "globalAvgPool expects rank 4");
    const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                       wd = x.dim(3);
    Tensor y({n, c});
    const float scale = 1.0f / float(h * wd);
    for (std::int64_t plane = 0; plane < n * c; ++plane) {
        const float *xp = x.data() + plane * h * wd;
        float acc = 0.0f;
        for (std::int64_t i = 0; i < h * wd; ++i)
            acc += xp[i];
        y[plane] = acc * scale;
    }
    return y;
}

Tensor
globalAvgPoolGrad(const Tensor &dy, const std::vector<std::int64_t> &xShape)
{
    const std::int64_t n = xShape[0], c = xShape[1], h = xShape[2],
                       wd = xShape[3];
    Tensor dx(xShape);
    const float scale = 1.0f / float(h * wd);
    for (std::int64_t plane = 0; plane < n * c; ++plane) {
        const float g = dy[plane] * scale;
        float *d = dx.data() + plane * h * wd;
        for (std::int64_t i = 0; i < h * wd; ++i)
            d[i] = g;
    }
    return dx;
}

Tensor
softmax(const Tensor &logits)
{
    inca_assert(logits.rank() == 2, "softmax expects rank 2");
    const std::int64_t n = logits.dim(0), f = logits.dim(1);
    Tensor p({n, f});
    for (std::int64_t i = 0; i < n; ++i) {
        float mx = -std::numeric_limits<float>::infinity();
        for (std::int64_t j = 0; j < f; ++j)
            mx = std::max(mx, logits.at(i, j));
        double denom = 0.0;
        for (std::int64_t j = 0; j < f; ++j) {
            const float e = std::exp(logits.at(i, j) - mx);
            p.at(i, j) = e;
            denom += e;
        }
        for (std::int64_t j = 0; j < f; ++j)
            p.at(i, j) = float(p.at(i, j) / denom);
    }
    return p;
}

LossResult
crossEntropy(const Tensor &logits, const std::vector<int> &labels)
{
    const std::int64_t n = logits.dim(0), f = logits.dim(1);
    inca_assert(std::int64_t(labels.size()) == n,
                "label count %zu != batch %lld", labels.size(),
                (long long)n);

    const Tensor p = softmax(logits);
    LossResult res;
    res.grad = Tensor({n, f});
    double loss = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
        const int label = labels[size_t(i)];
        inca_assert(label >= 0 && label < f, "label %d out of range",
                    label);
        loss -= std::log(std::max(p.at(i, label), 1e-12f));
        for (std::int64_t j = 0; j < f; ++j) {
            res.grad.at(i, j) =
                (p.at(i, j) - (j == label ? 1.0f : 0.0f)) / float(n);
        }
    }
    res.loss = loss / double(n);
    return res;
}

LossResult
l2Loss(const Tensor &outputs, const std::vector<int> &labels)
{
    const std::int64_t n = outputs.dim(0), f = outputs.dim(1);
    inca_assert(std::int64_t(labels.size()) == n,
                "label count %zu != batch %lld", labels.size(),
                (long long)n);
    LossResult res;
    res.grad = Tensor({n, f});
    double loss = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
        const int label = labels[size_t(i)];
        inca_assert(label >= 0 && label < f, "label %d out of range",
                    label);
        for (std::int64_t j = 0; j < f; ++j) {
            const float target = j == label ? 1.0f : 0.0f;
            const float diff = outputs.at(i, j) - target;
            loss += 0.5 * double(diff) * double(diff);
            res.grad.at(i, j) = diff / float(n);
        }
    }
    res.loss = loss / double(n);
    return res;
}

int
countCorrect(const Tensor &logits, const std::vector<int> &labels)
{
    const std::int64_t n = logits.dim(0), f = logits.dim(1);
    int correct = 0;
    for (std::int64_t i = 0; i < n; ++i) {
        std::int64_t best = 0;
        for (std::int64_t j = 1; j < f; ++j) {
            if (logits.at(i, j) > logits.at(i, best))
                best = j;
        }
        if (best == labels[size_t(i)])
            ++correct;
    }
    return correct;
}

} // namespace tensor
} // namespace inca
