/**
 * @file
 * Circuit-model tests against the paper's published constants
 * (Table II) and scaling claims, plus the 3D-structure choice
 * (Section IV-A: why INCA uses HRRAM).
 */

#include <gtest/gtest.h>

#include "circuit/adc.hh"
#include "circuit/cells.hh"
#include "circuit/digital.hh"
#include "circuit/rram.hh"
#include "circuit/rram3d.hh"
#include "circuit/tech.hh"

namespace inca {
namespace circuit {
namespace {

TEST(Rram, TableIIDefaults)
{
    const RramDevice d = paperDevice();
    EXPECT_DOUBLE_EQ(d.rOn, 240e3);
    EXPECT_DOUBLE_EQ(d.rOff, 24e6);
    EXPECT_DOUBLE_EQ(d.vRead, 0.5);
    EXPECT_DOUBLE_EQ(d.vWrite, 1.1);
    EXPECT_DOUBLE_EQ(d.tRead, 10e-9);
    EXPECT_DOUBLE_EQ(d.tWrite, 50e-9);
    EXPECT_DOUBLE_EQ(d.onOffRatio(), 100.0);
}

TEST(Rram, OnCellPowerConsistentWithResistance)
{
    // P = V^2 / R at the read voltage: 0.25 / 240k = 1.04 uW, matching
    // Table II's 1.03 uW on-cell power to ~1 %.
    const RramDevice d = paperDevice();
    const double derived = d.vRead * d.vRead / d.rOn;
    EXPECT_NEAR(derived, d.pOnCell, 0.02e-6);
}

TEST(Rram, ReadEnergies)
{
    const RramDevice d = paperDevice();
    // On-cell: 1.03 uW x 10 ns = 10.3 fJ.
    EXPECT_NEAR(d.readEnergyOn(), 10.3e-15, 0.1e-15);
    EXPECT_NEAR(d.readEnergyOff(), 0.1042e-15, 0.001e-15);
    EXPECT_NEAR(d.avgReadEnergy(0.5),
                (d.readEnergyOn() + d.readEnergyOff()) / 2.0, 1e-18);
    EXPECT_DOUBLE_EQ(d.avgReadEnergy(1.0), d.readEnergyOn());
    EXPECT_DOUBLE_EQ(d.avgReadEnergy(0.0), d.readEnergyOff());
}

TEST(Rram, WriteEnergies)
{
    const RramDevice d = paperDevice();
    // On-state write: 1.1^2 / 240k x 50 ns = 252 fJ.
    EXPECT_NEAR(d.writeEnergyOn(), 252e-15, 2e-15);
    EXPECT_NEAR(d.writeEnergyOff(), 2.52e-15, 0.05e-15);
    EXPECT_GT(d.writeEnergyOn(), d.readEnergyOn());
}

TEST(RramDeath, BadOnFractionPanics)
{
    const RramDevice d = paperDevice();
    EXPECT_DEATH(d.avgReadEnergy(1.5), "on-fraction");
    EXPECT_DEATH(d.avgWriteEnergy(-0.1), "on-fraction");
}

TEST(Tech, PaperScaling)
{
    const TechScaling s = paperScaling();
    EXPECT_DOUBLE_EQ(s.linearFactor, 0.34);
    EXPECT_NEAR(s.areaFactor(), 0.1156, 1e-9);
    EXPECT_DOUBLE_EQ(s.scaleArea(1.0e-12), 0.1156e-12);
    EXPECT_DOUBLE_EQ(s.scaleEnergy(1.0e-12), 0.34e-12);
    EXPECT_DOUBLE_EQ(s.scaleDelay(10e-9), 3.4e-9);
}

TEST(Cells, BaselineCellAreaMatchesPaper)
{
    // "the baseline one-cell area is 0.030 um^2 (after scaling)".
    Cell1T1R cell;
    EXPECT_NEAR(cell.scaledArea(), 0.030e-12, 0.001e-12);
    EXPECT_NEAR(cell.rawArea(), 540e-9 * 485e-9, 1e-18);
}

TEST(Cells, IncaStackedCellAreaMatchesPaper)
{
    // "16 cells of INCA occupy only 0.048 um^2".
    Cell2T1R cell;
    EXPECT_NEAR(cell.scaledArea(), 0.048e-12, 0.002e-12);
    EXPECT_EQ(cell.verticalStack, 16);
    EXPECT_NEAR(cell.areaPerCell() * 16.0, cell.scaledArea(), 1e-18);
}

TEST(Cells, TwoTransistorCellLargerThanOneTransistor)
{
    Cell1T1R base;
    Cell2T1R inca;
    EXPECT_GT(inca.rawArea(), base.rawArea());
    // ... but per stored bit, stacking wins by ~10x.
    EXPECT_LT(inca.areaPerCell(), base.scaledArea());
}

TEST(Adc, EightBitEqualsFourFourBitEnergy)
{
    // The paper's rule: one 8-bit ADC consumes as much energy as four
    // 4-bit ADCs, not two.
    const AdcModel a4 = makeAdc(4);
    const AdcModel a8 = makeAdc(8);
    EXPECT_NEAR(a8.energyPerConversion / a4.energyPerConversion, 4.0,
                1e-9);
}

TEST(Adc, FrequencyAnchors)
{
    EXPECT_NEAR(makeAdc(4).frequencyHz, 2.1e9, 1e6);
    EXPECT_NEAR(makeAdc(8).frequencyHz, 1.2e9, 1e6);
}

TEST(Adc, ConversionLatency)
{
    const AdcModel a4 = makeAdc(4);
    EXPECT_NEAR(a4.conversionLatency(), 4.0 / 2.1e9, 1e-12);
    const AdcModel a8 = makeAdc(8);
    EXPECT_GT(a8.conversionLatency(), a4.conversionLatency());
}

TEST(Adc, AreaAnchorsReproduceTableV)
{
    // Table V: 16128 ADCs -> 30.298 mm^2 (8-bit) / 4.5864 mm^2
    // (4-bit).
    EXPECT_NEAR(makeAdc(8).area * 16128.0, 30.298e-6, 0.2e-6);
    EXPECT_NEAR(makeAdc(4).area * 16128.0, 4.5864e-6, 0.05e-6);
}

/** Energy and area must grow monotonically with resolution. */
class AdcMonotone : public ::testing::TestWithParam<int>
{
};

TEST_P(AdcMonotone, GrowsWithBits)
{
    const int bits = GetParam();
    EXPECT_GT(makeAdc(bits + 1).energyPerConversion,
              makeAdc(bits).energyPerConversion);
    EXPECT_GT(makeAdc(bits + 1).area, makeAdc(bits).area);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AdcMonotone,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10));

TEST(AdcDeath, BadResolutionPanics)
{
    EXPECT_DEATH(makeAdc(0), "resolution");
    EXPECT_DEATH(makeAdc(13), "resolution");
}

TEST(Dac, TableVAreaAnchors)
{
    const DacModel dac = makeDac();
    // Baseline: 16128 x 128 DACs -> 0.343 mm^2.
    EXPECT_NEAR(dac.area * 16128.0 * 128.0, 0.343e-6, 0.01e-6);
    // INCA: 16128 x 256 DACs -> 0.686 mm^2.
    EXPECT_NEAR(dac.area * 16128.0 * 256.0, 0.686e-6, 0.02e-6);
}

TEST(Digital, AdderTreeEnergy)
{
    const DigitalModel m = makeDigital();
    EXPECT_DOUBLE_EQ(adderTreeEnergy(m, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(adderTreeEnergy(m, 2.0), m.adder16bit);
    EXPECT_DOUBLE_EQ(adderTreeEnergy(m, 17.0), 16.0 * m.adder16bit);
    EXPECT_DOUBLE_EQ(adderTreeEnergy(m, 2.0, false), m.adder8bit);
    EXPECT_DOUBLE_EQ(adderTreeEnergy(m, 0.0), 0.0);
}

TEST(Digital, RelativeCosts)
{
    const DigitalModel m = makeDigital();
    // The AND gate (INCA's ReLU gradient trick) must be far cheaper
    // than an adder or a LUT lookup -- that is the point of the trick.
    EXPECT_LT(m.andGate, m.adder8bit / 2.0);
    EXPECT_LT(m.andGate, m.lutLookup / 2.0);
    EXPECT_GT(m.shiftAccumulate, m.adder8bit);
}

TEST(Rram3D, IncaGeometryFeasibleOnlyAsHrram)
{
    // 16 x 16 x 64: 64 planes exceed the vertical-layer limit but fit
    // the horizontal-stacking envelope -- "INCA demands a design with
    // highly stacked 3D RRAM but not a large size plane. Therefore,
    // we chose HRRAM."
    const auto v = incaChoice(Stack3DStyle::Vrram);
    const auto h = incaChoice(Stack3DStyle::Hrram);
    EXPECT_FALSE(v.feasible);
    EXPECT_NE(v.reason.find("vertical layer"), std::string::npos);
    EXPECT_TRUE(h.feasible);
    EXPECT_EQ(h.cells, 16 * 16 * 64);
}

TEST(Rram3D, HrramFootprintMatchesTableV)
{
    // The HRRAM evaluation of the Table II stack must equal the area
    // model's 49.152 um^2 figure.
    const auto h = incaChoice(Stack3DStyle::Hrram);
    EXPECT_NEAR(h.footprint, 49.152e-12, 1.0e-12);
}

TEST(Rram3D, VrramSuitsShallowStacks)
{
    // A shallow, wide structure is VRRAM territory.
    const auto v = evaluate3D(Stack3DStyle::Vrram, 64, 8, Cell2T1R{});
    EXPECT_TRUE(v.feasible);
    const auto h = evaluate3D(Stack3DStyle::Hrram, 65, 8, Cell2T1R{});
    EXPECT_FALSE(h.feasible);
    EXPECT_NE(h.reason.find("plane side"), std::string::npos);
}

TEST(Rram3D, HorizontalStackLimitEnforced)
{
    const auto h =
        evaluate3D(Stack3DStyle::Hrram, 16, 256, Cell2T1R{});
    EXPECT_FALSE(h.feasible);
    EXPECT_NE(h.reason.find("horizontal"), std::string::npos);
}

TEST(Rram3D, StyleNames)
{
    EXPECT_STREQ(stack3DStyleName(Stack3DStyle::Vrram), "VRRAM");
    EXPECT_STREQ(stack3DStyleName(Stack3DStyle::Hrram), "HRRAM");
}

} // namespace
} // namespace circuit
} // namespace inca
