/**
 * @file
 * Circuit-model tests against the paper's published constants
 * (Table II) and scaling claims.
 */

#include <gtest/gtest.h>

#include "circuit/adc.hh"
#include "circuit/cells.hh"
#include "circuit/digital.hh"
#include "circuit/rram.hh"
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

} // namespace
} // namespace circuit
} // namespace inca
