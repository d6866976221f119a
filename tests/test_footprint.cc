/**
 * @file
 * Memory-footprint model tests (the structure behind Table IV; the
 * paper's values are rows of sim/paper.hh).
 */

#include <gtest/gtest.h>

#include "dataflow/footprint.hh"
#include "nn/model_zoo.hh"

namespace inca {
namespace dataflow {
namespace {

TEST(Footprint, StructuralRelations)
{
    for (const auto &net : nn::evaluationSuite()) {
        const auto row = footprint(net);
        const double w = double(net.totalWeights());
        const double a = double(net.totalActivations());
        // Baseline RRAM = weights + transposed copy + activations.
        EXPECT_DOUBLE_EQ(row.baseline.rram, 2.0 * w + a) << net.name;
        // Baseline buffers stage the activations.
        EXPECT_DOUBLE_EQ(row.baseline.buffers, a) << net.name;
        // INCA: activations in RRAM, weights in buffers.
        EXPECT_DOUBLE_EQ(row.inca.rram, a) << net.name;
        EXPECT_DOUBLE_EQ(row.inca.buffers, w) << net.name;
    }
}

TEST(Footprint, IncaRramEqualsBaselineBuffers)
{
    // A striking Table IV symmetry: INCA's RRAM column equals the
    // baseline's buffer column (both are the activation capacity).
    for (const auto &net : nn::evaluationSuite()) {
        const auto row = footprint(net);
        EXPECT_DOUBLE_EQ(row.inca.rram, row.baseline.buffers)
            << net.name;
    }
}

TEST(Footprint, IncaNeedsFarLessRram)
{
    // Limitation 2's bottom line: INCA's RRAM requirement is a small
    // fraction of the baseline's for the heavy networks.
    for (const auto &net : nn::heavySuite()) {
        const auto row = footprint(net);
        EXPECT_LT(row.inca.rram, 0.25 * row.baseline.rram)
            << net.name;
    }
}

TEST(Footprint, PrecisionScalesLinearly)
{
    const auto p8 = footprint(nn::resnet18(), 8);
    const auto p16 = footprint(nn::resnet18(), 16);
    EXPECT_DOUBLE_EQ(p16.baseline.rram, 2.0 * p8.baseline.rram);
    EXPECT_DOUBLE_EQ(p16.inca.buffers, 2.0 * p8.inca.buffers);
}

TEST(Footprint, ToMiB)
{
    EXPECT_DOUBLE_EQ(toMiB(1048576.0), 1.0);
    EXPECT_DOUBLE_EQ(toMiB(0.0), 0.0);
}

} // namespace
} // namespace dataflow
} // namespace inca
