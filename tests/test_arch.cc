/**
 * @file
 * Architecture configuration, area roll-up (Table V) and idle-power
 * tests.
 */

#include <gtest/gtest.h>

#include "arch/area.hh"
#include "arch/config.hh"
#include "arch/power.hh"

namespace inca {
namespace arch {
namespace {

TEST(Config, TableIIOrganization)
{
    const IncaConfig inca = paperInca();
    EXPECT_EQ(inca.org.numTiles, 168);
    EXPECT_EQ(inca.org.tileSize, 12);
    EXPECT_EQ(inca.org.macroSize, 8);
    EXPECT_EQ(inca.org.totalMacros(), 2016);
    EXPECT_EQ(inca.org.totalSubarrays(), 16128);
    EXPECT_EQ(inca.subarraySize, 16);
    EXPECT_EQ(inca.stackedPlanes, 64);
    EXPECT_EQ(inca.adcBits, 4);
    EXPECT_EQ(inca.subarraysPerAdc, 16);
    EXPECT_EQ(inca.batchSize, 64);
}

TEST(Config, BaselineTableII)
{
    const BaselineConfig base = paperBaseline();
    EXPECT_EQ(base.subarraySize, 128);
    EXPECT_EQ(base.adcBits, 8);
    EXPECT_EQ(base.org.totalSubarrays(), 16128);
}

TEST(Config, IsoCapacityComparison)
{
    // Section V-B-6: "the number of RRAMs in one 3D architecture
    // (16 x 16 x 64) equals that of one crossbar in the baseline
    // (128 x 128)" -- and hence the chips are capacity-equal.
    const IncaConfig inca = paperInca();
    const BaselineConfig base = paperBaseline();
    EXPECT_EQ(inca.cellsPerStack(), base.cellsPerSubarray());
    EXPECT_EQ(inca.cellsPerStack(), 16384);
    EXPECT_EQ(inca.totalCells(), base.totalCells());
}

TEST(Config, CycleTimes)
{
    const IncaConfig inca = paperInca();
    const BaselineConfig base = paperBaseline();
    EXPECT_DOUBLE_EQ(inca.readCycle(), 10e-9);
    // Paper Section V-B-2: baseline read ~2x INCA's write latency.
    EXPECT_DOUBLE_EQ(base.readCycle(), 100e-9);
    EXPECT_DOUBLE_EQ(base.readCycle(),
                     2.0 * inca.device.tWrite);
}

TEST(Area, IncaSavesAreaOverall)
{
    // Table V's bottom line: the 3D stacks and 4-bit ADCs outweigh
    // the larger 2T1R cell.
    EXPECT_LT(incaArea(paperInca()).total(),
              0.6 * baselineArea(paperBaseline()).total());
}

TEST(Area, ArrayAdvantageIsTenX)
{
    // 16 stacked cells per 2T1R footprint.
    const double ratio = baselineArea(paperBaseline()).array /
                         incaArea(paperInca()).array;
    EXPECT_NEAR(ratio, 10.0, 0.5);
}

TEST(Power, LeakageDensityScalesWithBits)
{
    const LeakageDensity d;
    EXPECT_NEAR(d.adcDensity(8), d.adc8bit, 1e-12);
    EXPECT_NEAR(d.adcDensity(4), d.adc8bit / 16.0, 1e-9);
    EXPECT_NEAR(d.adcDensity(9), d.adc8bit * 2.0, 1e-9);
}

TEST(Power, BaselineLeaksMoreThanInca)
{
    const Watts inca = incaIdlePower(paperInca());
    const Watts base = baselineIdlePower(paperBaseline());
    EXPECT_GT(base, 5.0 * inca);
    EXPECT_GT(inca, 0.0);
    EXPECT_LT(base, 50.0); // sanity: a chip, not a toaster
}

TEST(Power, GatingReducesIdle)
{
    const LeakageDensity d;
    const AreaBreakdown a = incaArea(paperInca());
    const Watts armed = idlePowerFromArea(a, d, 4, 1.0);
    const Watts gated = idlePowerFromArea(a, d, 4, 0.25);
    EXPECT_LT(gated, armed);
    EXPECT_GT(gated, 0.0);
}

TEST(PowerDeath, BadActiveFractionPanics)
{
    const LeakageDensity d;
    const AreaBreakdown a = incaArea(paperInca());
    EXPECT_DEATH(idlePowerFromArea(a, d, 4, 1.5), "active fraction");
}

} // namespace
} // namespace arch
} // namespace inca
