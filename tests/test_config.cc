/**
 * @file
 * INI-style Config parser tests and chip-config override tests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "common/config.hh"

namespace inca {
namespace {

TEST(Config, ParsesFlatKeys)
{
    const auto cfg = Config::fromString("batch = 32\nname = vgg16\n");
    EXPECT_EQ(cfg.getInt("batch", 0), 32);
    EXPECT_EQ(cfg.getString("name"), "vgg16");
    EXPECT_EQ(cfg.size(), 2u);
}

TEST(Config, SectionsFlattenToDottedKeys)
{
    const auto cfg = Config::fromString(
        "[inca]\nsubarray_size = 32\n[baseline]\nsubarray_size = 64\n");
    EXPECT_EQ(cfg.getInt("inca.subarray_size", 0), 32);
    EXPECT_EQ(cfg.getInt("baseline.subarray_size", 0), 64);
    EXPECT_FALSE(cfg.has("subarray_size"));
}

TEST(Config, CommentsAndBlankLines)
{
    const auto cfg = Config::fromString(
        "# full-line comment\n\nkey = 7 ; trailing comment\n"
        "other = text # more\n");
    EXPECT_EQ(cfg.getInt("key", 0), 7);
    EXPECT_EQ(cfg.getString("other"), "text");
}

TEST(Config, WhitespaceTrimmed)
{
    const auto cfg = Config::fromString("   spaced   =   value   \n");
    EXPECT_EQ(cfg.getString("spaced"), "value");
}

TEST(Config, Fallbacks)
{
    const Config cfg;
    EXPECT_EQ(cfg.getInt("missing", 42), 42);
    EXPECT_EQ(cfg.getString("missing", "abc"), "abc");
}

TEST(Config, TypedParsing)
{
    const auto cfg = Config::fromString(
        "neg = -17\nhex = 0x10\nplus = +5\n");
    EXPECT_EQ(cfg.getInt("neg", 0), -17);
    EXPECT_EQ(cfg.getInt("hex", 0), 16);
    EXPECT_EQ(cfg.getInt("plus", 0), 5);
}

TEST(Config, LeadingZeroIsDecimalNotOctal)
{
    const auto cfg =
        Config::fromString("nine = 09\n[inca]\nadc_bits = 010\n");
    EXPECT_EQ(cfg.getInt("inca.adc_bits", 0), 10);
    EXPECT_EQ(cfg.getInt("nine", 0), 9);
    EXPECT_EQ(arch::incaFromConfig(cfg).adcBits, 10);
}

TEST(Config, SetOverwrites)
{
    Config cfg;
    cfg.set("a", "1");
    cfg.set("a", "2");
    EXPECT_EQ(cfg.getInt("a", 0), 2);
}

TEST(Config, KeysSorted)
{
    const auto cfg = Config::fromString("z = 1\na = 2\n");
    const auto keys = cfg.keys();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "a");
    EXPECT_EQ(keys[1], "z");
}

TEST(Config, FromFileRoundTrip)
{
    const std::string path = "/tmp/inca_config_test.ini";
    {
        std::ofstream out(path);
        out << "[inca]\nadc_bits = 5\n";
    }
    const auto cfg = Config::fromFile(path);
    EXPECT_EQ(cfg.getInt("inca.adc_bits", 0), 5);
    std::remove(path.c_str());
}

TEST(ConfigDeath, MalformedLineFatal)
{
    EXPECT_DEATH(Config::fromString("no equals sign\n"),
                 "expected 'key = value'");
    EXPECT_DEATH(Config::fromString("[unterminated\n"),
                 "unterminated");
    EXPECT_DEATH(Config::fromString("= novalue\n"), "empty key");
}

TEST(ConfigDeath, BadNumberFatal)
{
    const auto cfg = Config::fromString(
        "x = not-a-number\nhuge = 99999999999999999999\nbare = 0x\n");
    EXPECT_DEATH(cfg.getInt("x", 0), "not an integer");
    EXPECT_DEATH(cfg.getInt("bare", 0), "not an integer");
    EXPECT_EXIT(cfg.getInt("huge", 0), ::testing::ExitedWithCode(1),
                "'huge'.*does not fit a 64-bit integer");
}

TEST(ArchConfig, IncaOverrides)
{
    const auto cfg = Config::fromString(
        "[inca]\nsubarray_size = 32\nadc_bits = 5\nbatch_size = 16\n"
        "num_tiles = 84\nbuffer_kib = 128\n");
    const auto inca = arch::incaFromConfig(cfg);
    EXPECT_EQ(inca.subarraySize, 32);
    EXPECT_EQ(inca.adcBits, 5);
    EXPECT_EQ(inca.batchSize, 16);
    EXPECT_EQ(inca.org.numTiles, 84);
    EXPECT_DOUBLE_EQ(inca.buffer.capacity, 128.0 * 1024.0);
    // Untouched fields keep Table II defaults.
    EXPECT_EQ(inca.stackedPlanes, 64);
    EXPECT_EQ(inca.weightBits, 8);
}

TEST(ArchConfig, BaselineOverrides)
{
    const auto cfg = Config::fromString(
        "[baseline]\nsubarray_size = 256\nadc_bits = 6\n");
    const auto base = arch::baselineFromConfig(cfg);
    EXPECT_EQ(base.subarraySize, 256);
    EXPECT_EQ(base.adcBits, 6);
    EXPECT_EQ(base.org.numTiles, 168);
}

/** fatal() when @p ini's chip section is read, naming @p key. */
void
expectChipConfigFatal(const std::string &ini, const std::string &key)
{
    const auto cfg = Config::fromString(ini);
    const std::string pattern = "config key '" + key + "'";
    if (key.rfind("inca.", 0) == 0) {
        EXPECT_EXIT(arch::incaFromConfig(cfg),
                    ::testing::ExitedWithCode(1), pattern)
            << ini;
    } else {
        EXPECT_EXIT(arch::baselineFromConfig(cfg),
                    ::testing::ExitedWithCode(1), pattern)
            << ini;
    }
}

TEST(ArchConfigDeath, EveryFieldBelowOneOrPastAnIntIsFatal)
{
    // Unchecked, a zero runs as a chip with 0 s latency (weight_bits)
    // or divides by zero (subarrays_per_adc), and a value past INT_MAX
    // wraps in the int field (4294967300 reads as 4).
    std::vector<std::string> keys = {
        "num_tiles",  "tile_size",     "macro_size", "buffer_kib",
        "bus_bits",   "subarray_size", "adc_bits",   "weight_bits",
        "batch_size", "activation_bits"};
    for (const std::string section : {"baseline", "inca"}) {
        if (section == "inca") { // the baseline has no 3D stack
            keys.push_back("stacked_planes");
            keys.push_back("subarrays_per_adc");
        }
        for (const std::string &key : keys) {
            for (const char *value : {"0", "-3", "4294967300"}) {
                expectChipConfigFatal("[" + section + "]\n" + key +
                                          " = " + value + "\n",
                                      section + "." + key);
            }
        }
    }
}

TEST(ArchConfigDeath, AdcBitsPastTheAdcModelAreFatal)
{
    expectChipConfigFatal("[inca]\nadc_bits = 13\n", "inca.adc_bits");
    expectChipConfigFatal("[baseline]\nadc_bits = 16\n",
                          "baseline.adc_bits");
    const auto cfg = Config::fromString("[inca]\nadc_bits = 12\n");
    EXPECT_EQ(arch::incaFromConfig(cfg).adcBits, 12);
}

TEST(ArchConfigDeath, UnknownKeysAreFatal)
{
    // Ignored, a misspelt key runs silently as the default chip.
    expectChipConfigFatal("[inca]\nadc_bts = 5\n", "inca.adc_bts");
    // The baseline has no 3D stack.
    expectChipConfigFatal("[baseline]\nstacked_planes = 8\n",
                          "baseline.stacked_planes");
    // Keys outside the two chip sections are not theirs to judge.
    const auto cfg = Config::fromString("batch = 8\n[other]\nx = y\n");
    EXPECT_EQ(arch::incaFromConfig(cfg).adcBits,
              arch::paperInca().adcBits);
    EXPECT_EQ(arch::baselineFromConfig(cfg).adcBits,
              arch::paperBaseline().adcBits);
}

TEST(ArchConfig, EmptyConfigIsTableII)
{
    const Config cfg;
    const auto inca = arch::incaFromConfig(cfg);
    EXPECT_EQ(inca.subarraySize, arch::paperInca().subarraySize);
    EXPECT_EQ(inca.org.totalSubarrays(), 16128);
}

} // namespace
} // namespace inca
