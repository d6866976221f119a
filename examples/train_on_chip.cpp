/**
 * @file
 * On-chip execution demo: runs real numbers through the bit-accurate
 * 3D 2T1R array model (the same dataflow the hardware executes --
 * partitioned inputs, sliding 2T1R windows, bit-serial weights,
 * per-plane 4-bit ADCs, adder trees), verifies it against the
 * mathematical reference, exercises the in-array training primitives
 * (transposed-kernel error backprop, in-array weight gradient), and
 * finishes with a miniature Table VI: training a CNN under WS-style
 * weight noise versus INCA-style activation noise.
 *
 *   $ ./build/examples/train_on_chip
 */

#include <cstdio>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "inca/functional.hh"
#include "nn/trainer.hh"
#include "sim/paper.hh"
#include "tensor/ops.hh"

int
main()
{
    using namespace inca;
    using tensor::Tensor;

    checkEnvironment();

    // ----------------------------------------------------------------
    // 1. Direct convolution on the array, checked against the math.
    Rng rng(2024);
    Tensor x({4, 3, 16, 16});
    for (std::int64_t i = 0; i < x.size(); ++i)
        x[i] = float(rng.below(256)); // 8-bit activations
    Tensor w({8, 3, 3, 3});
    for (std::int64_t i = 0; i < w.size(); ++i)
        w[i] = float(std::int64_t(rng.below(256)) - 128); // signed 8b

    core::FunctionalOptions opts;
    opts.planeSize = 16;
    opts.planes = 4; // four batch images on four planes
    core::IncaFunctional array(opts);

    const Tensor onChip = array.conv2d(x, w, {1, 1});
    const Tensor reference = tensor::conv2d(x, w, {1, 1});
    std::printf("forward conv on the 3D 2T1R array: %s (4 images in "
                "parallel on 4 planes, 3x3 windows, 4-bit ADC)\n",
                onChip.equals(reference) ? "EXACT match with math"
                                         : "MISMATCH");
    inca_assert(onChip.equals(reference), "array conv diverged");

    // ----------------------------------------------------------------
    // 2. Backward pass on the array: errors overwrite activations and
    //    convolve with the transposed kernels fetched from the same
    //    weight bytes.
    Tensor dy({4, 8, 16, 16});
    for (std::int64_t i = 0; i < dy.size(); ++i)
        dy[i] = float(std::int64_t(rng.below(64)) - 32);
    const Tensor bwdChip = array.errorBackprop(dy, w, 1);
    const Tensor bwdRef =
        tensor::conv2dInputGrad(dy, w, x.shape(), {1, 1});
    std::printf("error backprop (delta * W^T) on the array:   %s\n",
                bwdChip.equals(bwdRef) ? "EXACT match with math"
                                       : "MISMATCH");
    inca_assert(bwdChip.equals(bwdRef), "array backprop diverged");

    // ----------------------------------------------------------------
    // 3. Weight gradient on the array: stored activations convolved
    //    with the error map acting as the kernel (Eq. 4).
    core::FunctionalOptions gradOpts;
    gradOpts.planeSize = 16;
    gradOpts.planes = 2;
    gradOpts.activationBits = 4;
    gradOpts.adcBits = 10; // the 10x10 error window needs headroom
    core::IncaFunctional gradArray(gradOpts);
    Tensor xs({2, 2, 12, 12});
    for (std::int64_t i = 0; i < xs.size(); ++i)
        xs[i] = float(rng.below(16));
    Tensor ds({2, 4, 10, 10});
    for (std::int64_t i = 0; i < ds.size(); ++i)
        ds[i] = float(std::int64_t(rng.below(8)) - 4);
    const Tensor dwChip = gradArray.weightGradient(xs, ds, 0);
    const Tensor dwRef =
        tensor::conv2dWeightGrad(ds, xs, {4, 2, 3, 3}, {1, 0});
    std::printf("weight gradient (delta * x) on the array:    %s\n",
                dwChip.equals(dwRef) ? "EXACT match with math"
                                     : "MISMATCH");
    inca_assert(dwChip.equals(dwRef), "array weight grad diverged");

    // ----------------------------------------------------------------
    // 4. Miniature Table VI: train under each hardware's noise.
    setQuiet(true);
    const auto runs = nn::AccuracyStudy().trainRuns(
        {nn::NoiseSpec{nn::NoiseTarget::None, 0.0},
         nn::NoiseSpec{nn::NoiseTarget::Weights, 0.05},
         nn::NoiseSpec{nn::NoiseTarget::Activations, 0.05}});
    const auto accuracy = [&](size_t run) {
        return TextTable::num(100.0 * runs[run].result.finalTestAccuracy,
                              1) +
               " %";
    };

    std::printf("\nin-situ training under RRAM noise (sigma = 0.05, "
                "the paper's harshest point):\n");
    TextTable t({"hardware", "noisy operand", "test accuracy"});
    t.addRow({"ideal", "-", accuracy(0)});
    t.addRow({"WS baseline", "weights (rewritten every update)",
              accuracy(1)});
    t.addRow({"INCA", "activations (transient)", accuracy(2)});
    t.print();
    std::printf("paper (ImageNet ResNet18): WS %.2f %%, INCA %.2f %% at "
                "sigma = 0.05.\n",
                sim::paperValue("Table VI weights noisy sigma 0.050 (%)"),
                sim::paperValue(
                    "Table VI activations noisy sigma 0.050 (%)"));
    return 0;
}
