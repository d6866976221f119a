/**
 * @file
 * StatSet accumulator tests.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/stats.hh"

namespace inca {
namespace {

/** @p s's present stats as "name=value" strings, in iteration order. */
std::vector<std::string>
entries(const StatSet &s)
{
    std::vector<std::string> out;
    s.forEach([&](Stat stat, double value) {
        out.push_back(std::string(statName(stat)) + "=" +
                      std::to_string(value));
    });
    return out;
}

TEST(Stats, AddAndGet)
{
    StatSet s;
    EXPECT_DOUBLE_EQ(s.get(Stat::EnergyAdc), 0.0);
    EXPECT_TRUE(entries(s).empty());
    // Adding 0 makes a stat present: "absent" and "0" stay distinct.
    s.add(Stat::EnergyAdc, 0.0);
    EXPECT_EQ(entries(s),
              std::vector<std::string>{"energy.adc=0.000000"});
    s.add(Stat::EnergyAdc, 1.5);
    s.add(Stat::EnergyAdc, 2.5);
    EXPECT_DOUBLE_EQ(s.get(Stat::EnergyAdc), 4.0);
}

TEST(Stats, AccumulateSets)
{
    StatSet a, b;
    a.add(Stat::EnergyAdc, 1.0);
    a.add(Stat::EnergyDramRead, 2.0);
    b.add(Stat::EnergyAdc, 3.0);
    b.add(Stat::CountArrayRead, 7.0);
    a += b;
    EXPECT_DOUBLE_EQ(a.get(Stat::EnergyAdc), 4.0);
    EXPECT_DOUBLE_EQ(a.get(Stat::EnergyDramRead), 2.0);
    EXPECT_DOUBLE_EQ(a.get(Stat::CountArrayRead), 7.0);
    EXPECT_DOUBLE_EQ(a.get(Stat::CountAdc), 0.0); // absent in both
    EXPECT_EQ(entries(a),
              (std::vector<std::string>{"count.array.read=7.000000",
                                        "energy.adc=4.000000",
                                        "energy.dram.read=2.000000"}));
}

TEST(Stats, SumPrefixRespectsHierarchy)
{
    StatSet s;
    s.add(Stat::EnergyAdc, 1.0);
    s.add(Stat::EnergyArrayRead, 2.0);
    s.add(Stat::EnergyArrayWrite, 4.0);
    s.add(Stat::CountAdc, 50.0); // must NOT match prefix "energy"
    EXPECT_DOUBLE_EQ(s.sum(statPrefix("energy")), 7.0);
    EXPECT_DOUBLE_EQ(s.sum(statPrefix("energy.array")), 6.0);
    EXPECT_DOUBLE_EQ(s.sum(statPrefix("energy.array.read")), 2.0);
    EXPECT_DOUBLE_EQ(s.sum(statPrefix("energy.adc")), 1.0);
    EXPECT_DOUBLE_EQ(s.sum(statPrefix("count")), 50.0);
    EXPECT_DOUBLE_EQ(s.sum(statPrefix("nothing")), 0.0);
}

TEST(Stats, SumPrefixExactNameOnly)
{
    // A prefix ends at a '.' boundary: "energy.dr" is not
    // "energy.dram", and "energy." names nothing.
    StatSet s;
    s.add(Stat::EnergyDramRead, 5.0);
    s.add(Stat::EnergyDramWrite, 3.0);
    EXPECT_DOUBLE_EQ(s.sum(statPrefix("energy.dram")), 8.0);
    EXPECT_DOUBLE_EQ(s.sum(statPrefix("energy.dram.read")), 5.0);
    EXPECT_DOUBLE_EQ(s.sum(statPrefix("energy.dr")), 0.0);
    EXPECT_DOUBLE_EQ(s.sum(statPrefix("energy.")), 0.0);
    EXPECT_DOUBLE_EQ(s.sum(statPrefix("")), 0.0);
}

TEST(Stats, EntriesAreOrdered)
{
    StatSet s;
    s.add(Stat::EnergyReliabilityWriteVerify, 1.0);
    s.add(Stat::CountAdc, 1.0);
    s.add(Stat::EnergyDac, 1.0);
    EXPECT_EQ(entries(s),
              (std::vector<std::string>{
                  "count.adc=1.000000", "energy.dac=1.000000",
                  "energy.reliability.write_verify=1.000000"}));
    // Id order is name order for every stat.
    for (int i = 1; i < kStatCount; ++i)
        EXPECT_LT(statName(Stat(i - 1)), statName(Stat(i)));
}

} // namespace
} // namespace inca
