/**
 * @file
 * CSV / JSON export tests, and the export number format: the shared
 * writer must print exactly printf "%.17g" bytes.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/env.hh"
#include "common/export_util.hh"
#include "common/random.hh"
#include "event/event.hh"
#include "inca/engine.hh"
#include "ir/lower.hh"
#include "json_lint.hh"
#include "nn/model_zoo.hh"
#include "sim/export.hh"

namespace inca {
namespace sim {
namespace {

arch::RunCost
sampleRun()
{
    core::IncaEngine engine(arch::paperInca());
    return engine.inference(nn::lenet5(), 8);
}

TEST(ExportCsv, HeaderAndRowCount)
{
    const auto run = sampleRun();
    const std::string csv = toCsv(run);
    // One header + one line per layer.
    size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, run.layers.size() + 1);
    EXPECT_EQ(csv.rfind("layer,kind,latency_s,energy_J", 0), 0u);
}

TEST(ExportCsv, ConsistentColumnCounts)
{
    const std::string csv = toCsv(sampleRun());
    std::istringstream in(csv);
    std::string line;
    size_t columns = 0;
    while (std::getline(in, line)) {
        size_t commas = 0;
        for (char c : line)
            commas += c == ',';
        if (columns == 0)
            columns = commas;
        else
            EXPECT_EQ(commas, columns) << line;
    }
    EXPECT_GE(columns, 4u);
}

TEST(ExportCsv, MentionsEveryLayer)
{
    const auto run = sampleRun();
    const std::string csv = toCsv(run);
    for (const auto &layer : run.layers)
        EXPECT_NE(csv.find(layer.name + ","), std::string::npos)
            << layer.name;
}

TEST(ExportCsv, QuotesHostileFieldsPerRfc4180)
{
    // A layer name with a comma, a quote, and a newline must not
    // shift columns or break rows: the field is quoted, embedded
    // quotes doubled.
    arch::RunCost run;
    arch::LayerCost layer;
    layer.name = "conv,3x3 \"same\"\npad";
    layer.stats.add("energy.dram", 1.0);
    run.layers.push_back(layer);
    const std::string csv = toCsv(run);
    EXPECT_NE(csv.find("\"conv,3x3 \"\"same\"\"\npad\""),
              std::string::npos)
        << csv;
    // Plain names stay unquoted (byte-compatible with old output).
    arch::RunCost plain;
    layer.name = "conv1";
    plain.layers.push_back(layer);
    EXPECT_EQ(toCsv(plain).find('"'), std::string::npos);
}

TEST(ExportCsv, QuotesHostileStatKeys)
{
    arch::RunCost run;
    arch::LayerCost layer;
    layer.name = "conv1";
    layer.stats.add("energy.dram,extra", 1.0);
    run.layers.push_back(layer);
    const std::string csv = toCsv(run);
    EXPECT_NE(csv.find("\"energy.dram,extra\""), std::string::npos)
        << csv;
}

TEST(ExportJson, ContainsTotalsAndLayers)
{
    const auto run = sampleRun();
    const std::string json = toJson(run);
    EXPECT_NE(json.find("\"network\": \"lenet5\""),
              std::string::npos);
    EXPECT_NE(json.find("\"phase\": \"inference\""),
              std::string::npos);
    EXPECT_NE(json.find("\"batch_size\": 8"), std::string::npos);
    EXPECT_NE(json.find("\"layers\": ["), std::string::npos);
    for (const auto &layer : run.layers)
        EXPECT_NE(json.find("\"" + layer.name + "\""),
                  std::string::npos);
}

TEST(ExportJson, BalancedBracesAndBrackets)
{
    const std::string json = toJson(sampleRun());
    int braces = 0, brackets = 0;
    bool inString = false;
    char prev = '\0';
    for (char c : json) {
        if (c == '"' && prev != '\\')
            inString = !inString;
        if (!inString) {
            braces += c == '{';
            braces -= c == '}';
            brackets += c == '[';
            brackets -= c == ']';
        }
        prev = c;
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
    EXPECT_FALSE(inString);
}

TEST(ExportJson, ValidPerStrictParser)
{
    EXPECT_TRUE(testutil::jsonValid(toJson(sampleRun())));
}

TEST(ExportJson, ProvenanceManifest)
{
    const auto run = sampleRun();
    const std::string json = toJson(run);
    EXPECT_NE(json.find("\"provenance\""), std::string::npos);
    EXPECT_NE(json.find("\"config_key_hash\": \"0x"),
              std::string::npos);
    // The engine stamps the design point's key hash; a real run is
    // never the empty-key hash 0x0.
    EXPECT_NE(run.configKeyHash, 0u);
    EXPECT_NE(json.find("\"threads\": "), std::string::npos);
    EXPECT_NE(json.find("\"cache\": "), std::string::npos);
    EXPECT_NE(json.find("\"build_type\": "), std::string::npos);
    for (const std::string &var : knownEnvVars())
        EXPECT_NE(json.find("\"" + var + "\": "), std::string::npos)
            << var;

    // Environment values are the user's bytes: a control character
    // in one must still leave strict JSON.
    const char *prior = std::getenv("INCA_TRACE");
    const std::string saved = prior ? prior : "";
    ASSERT_EQ(setenv("INCA_TRACE", "t\tx\n.json", 1), 0);
    const std::string hostile = toJson(run);
    if (prior)
        setenv("INCA_TRACE", saved.c_str(), 1);
    else
        unsetenv("INCA_TRACE");
    testutil::JsonLint lint(hostile);
    EXPECT_TRUE(lint.valid())
        << "bad JSON near byte " << lint.errorPos();
    EXPECT_NE(hostile.find("\"INCA_TRACE\": \"t\\tx\\n.json\""),
              std::string::npos);
}

TEST(ExportJson, TimelineEventRunCarriesBackendAndProvenance)
{
    // timeline --network lenet5 --backend event --json: the event
    // run with the members the driver adds.
    const ir::Program program = ir::lowerInca(
        arch::paperInca(), nn::lenet5(), arch::Phase::Inference, 64);
    const arch::RunCost run = event::execute(program).run;
    const std::string json = toJson(
        run, "\"backend\": \"event\", \"overlap\": false, "
             "\"engine\": \"" + program.engine + "\"");
    testutil::JsonLint lint(json);
    EXPECT_TRUE(lint.valid())
        << "bad JSON near byte " << lint.errorPos();
    for (const char *member :
         {"\"backend\": \"event\"", "\"overlap\": false",
          "\"engine\": \"inca\"", "\"config_key_hash\": \"0x",
          "\"layers\": [\n    {\"name\": "})
        EXPECT_NE(json.find(member), std::string::npos) << member;
    EXPECT_NE(run.configKeyHash, 0u);
}

TEST(ExportJson, TrainingPhaseLabel)
{
    core::IncaEngine engine(arch::paperInca());
    const auto run = engine.training(nn::lenet5(), 4);
    EXPECT_NE(toJson(run).find("\"phase\": \"training\""),
              std::string::npos);
}

// ---------------------------------------------------------------
// The export number writer

/** "" when both writers print printf's "%.17g" bytes for @p v. */
std::string
num17Mismatch(double v)
{
    char want[64];
    std::snprintf(want, sizeof(want), "%.17g", v);
    std::string appended = "x,";
    appendNum17(appended, v);
    const std::string direct = num17(v);
    if (direct == want && appended.compare(2, std::string::npos, want) == 0)
        return "";
    return std::string("printf \"") + want + "\" vs num17 \"" +
           direct + "\", appendNum17 \"" + appended.substr(2) + "\"";
}

TEST(ExportNum17, EdgeCasesMatchPrintf)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double v :
         {0.0, -0.0, inf, -inf, nan, -nan, 5e-324, -5e-324, DBL_MIN,
          DBL_MAX, -DBL_MAX,
          // %g switches to exponent notation below 1e-4 and at 1e17
          // (precision 17); probe both sides of each switch.
          1e-5, 1e-4, std::nextafter(1e-4, 0.0), 9.9999999999999998e16,
          1e17, std::nextafter(1e17, 0.0), std::nextafter(1e17, 1e18),
          1.0, 0.1, -0.5, 123456789.0})
        EXPECT_EQ(num17Mismatch(v), "");
}

TEST(ExportNum17, RandomBitPatternsMatchPrintf)
{
    // Raw bit patterns reach every exponent, subnormals, infinities
    // and NaN payloads, not just the values a simulation prints.
    SplitMix64 rng(0x17);
    int checked = 0;
    for (; checked < 200000; ++checked) {
        const std::uint64_t bits = rng.next();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        const std::string why = num17Mismatch(v);
        if (!why.empty()) {
            ADD_FAILURE() << "bits 0x" << std::hex << bits << ": "
                          << why;
            break;
        }
    }
    EXPECT_EQ(checked, 200000);
}

TEST(ExportFile, RoundTrip)
{
    const std::string path = "/tmp/inca_export_test.csv";
    writeFile(path, "hello,world\n");
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "hello,world");
    std::remove(path.c_str());
}

TEST(ExportFileDeath, UnwritablePathFatal)
{
    EXPECT_DEATH(writeFile("/nonexistent-dir/x.csv", "x"),
                 "cannot write");
}

} // namespace
} // namespace sim
} // namespace inca
