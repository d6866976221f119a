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
#include <string>
#include <utility>
#include <vector>

#include "common/env.hh"
#include "common/export_util.hh"
#include "common/random.hh"
#include "driver_specs.hh"
#include "event/event.hh"
#include "inca/engine.hh"
#include "ir/lower.hh"
#include "json_lint.hh"
#include "nn/model_zoo.hh"
#include "reliability/mitigation.hh"
#include "sim/export.hh"
#include "test_fixtures.hh"

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
    layer.stats.add(Stat::EnergyDramRead, 1.0);
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

TEST(ExportCsv, StatNamesNeedNoQuoting)
{
    // The exports print stat names bare: every name is a plain CSV
    // field and a JSON string that needs no escaping.
    for (const std::string_view name : kStatNames) {
        const std::string n(name);
        EXPECT_EQ(csvField(n), n);
        EXPECT_EQ(jsonEscape(n), n);
    }
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

TEST(ExportRows, PerLayerStatRowsMatchThePinnedDigests)
{
    // Every stat of every layer, as toCsv and as toJson without
    // provenance, pinned across commits for the paper points at the
    // paper batch. Both backends print the same bytes: with overlap
    // off the event schedule folds to the analytic walk.
    struct Pinned
    {
        const char *network;
        bool inca;
        arch::Phase phase;
        std::uint64_t csv, json;
    };
    constexpr arch::Phase kInf = arch::Phase::Inference;
    constexpr arch::Phase kTrn = arch::Phase::Training;
    const Pinned cases[] = {
        {"vgg16", true, kInf, 0xb802e15295affb0cULL,
         0xf557cb899de685dfULL},
        {"vgg16", true, kTrn, 0x1b93efd21f86f619ULL,
         0x496baa4d2ffb72d8ULL},
        {"vgg16", false, kInf, 0x97300cba8a3e9fa8ULL,
         0x56fb4a69df6bfca8ULL},
        {"vgg16", false, kTrn, 0xafb023dca1cb2af6ULL,
         0x3e93944c918a8ab8ULL},
        {"resnet18", true, kInf, 0x4dffb98afb15b5b1ULL,
         0x816d635f06dbe8beULL},
        {"resnet18", true, kTrn, 0x10568092b0cc7e42ULL,
         0x0377414372818252ULL},
        {"resnet18", false, kInf, 0x4131482935e4ccaeULL,
         0xf12c6a3922f79314ULL},
        {"resnet18", false, kTrn, 0xc3bf3c9eaffa4303ULL,
         0xc671c925f5a90e2dULL},
    };
    for (const Pinned &c : cases) {
        const nn::NetworkDesc net = nn::byName(c.network);
        for (const testing::Backend b : testing::eachBackend()) {
            SCOPED_TRACE(std::string(c.network) +
                         (c.inca ? " inca " : " ws ") +
                         (c.phase == kTrn ? "training " : "inference ") +
                         testing::backendName(b));
            const arch::RunCost run =
                c.inca ? testing::runInca(b, arch::paperInca(), net,
                                          c.phase, 64)
                       : testing::runBaseline(b, arch::paperBaseline(),
                                              net, c.phase, 64);
            EXPECT_EQ(testutil::fnv1a(toCsv(run)), c.csv);
            EXPECT_EQ(
                testutil::fnv1a(testutil::withoutProvenance(toJson(run))),
                c.json);
        }
    }

    // Write-verify itemizes its surcharge as the three reliability
    // stats on every layer that writes its arrays.
    const arch::IncaConfig cfg = arch::paperInca();
    arch::RunCost run =
        core::IncaEngine(cfg).inference(nn::resnet18(), 64);
    reliability::MitigationSpec spec;
    spec.writeVerifyRetries = 2;
    reliability::applyWriteVerify(run, spec, 1e-3, 1e-4, cfg.device,
                                  double(cfg.org.totalSubarrays()));
    EXPECT_NE(toCsv(run).find(",count.reliability.extra_pulse,"
                              "count.reliability.verify_read,"),
              std::string::npos);
    EXPECT_EQ(testutil::fnv1a(toCsv(run)), 0x3f4a3e342e1bc1deULL);
    EXPECT_EQ(testutil::fnv1a(testutil::withoutProvenance(toJson(run))),
              0xdcf9b9b80db86c27ULL);
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

/**
 * "" when every writer prints printf's "%.17g" bytes for @p v, and
 * writeNum17 stays inside its scratch window: it returns at most
 * kNum17Bytes past its start and stores nothing before it or past
 * start + kNum17Bytes.
 */
std::string
num17Mismatch(double v)
{
    char want[64];
    std::snprintf(want, sizeof(want), "%.17g", v);
    static const char guard[] = "########";
    char buf[8 + kNum17Bytes + 8];
    std::memset(buf, '#', sizeof(buf));
    char *const start = buf + 8;
    char *const end = writeNum17(start, v);
    if (end < start || end > start + kNum17Bytes)
        return "writeNum17 returned " + std::to_string(end - start) +
               " bytes";
    for (const char *c : {buf, start + kNum17Bytes})
        if (std::memcmp(c, guard, 8) != 0)
            return "writeNum17 wrote outside its scratch window";
    const std::string written(start, end);
    std::string appended = "x,";
    appendNum17(appended, v);
    const std::string direct = num17(v);
    if (written == want && direct == want &&
        appended.compare(2, std::string::npos, want) == 0)
        return "";
    return std::string("printf \"") + want + "\" vs writeNum17 \"" +
           written + "\", num17 \"" + direct + "\", appendNum17 \"" +
           appended.substr(2) + "\"";
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
    // The integer path's rounding and decade cases, with the bytes
    // spelled out: exact halves round to even; 1e-4's decade estimate
    // is one low (the 18th digit is dropped), its predecessor's is
    // right and prints in exponent notation; 2^56 <= 1e17 < 2^57 is
    // the window's top decade. No double inside the window rounds up
    // to a power of ten at 17 digits, so the carries come from the
    // fallback's range: the double nearest 1e-14 lies below it.
    const std::pair<double, const char *> pinned[] = {
        {std::ldexp(1.0, -25), "2.9802322387695312e-08"},
        {-std::ldexp(1.0, -25), "-2.9802322387695312e-08"},
        {1234567890123456.25, "1234567890123456.2"},
        {1234567890123456.75, "1234567890123456.8"},
        {1e-4, "0.0001"},
        {std::nextafter(1e-4, 0.0), "9.9999999999999991e-05"},
        {1e17, "1e+17"},
        {std::nextafter(1e17, 0.0), "99999999999999984"},
        {std::nextafter(1e17, 1e18), "1.0000000000000002e+17"},
        {1e-14, "1e-14"},
        {1e98, "1e+98"},
    };
    for (const auto &[v, bytes] : pinned) {
        EXPECT_EQ(num17(v), bytes);
        EXPECT_EQ(num17Mismatch(v), "");
    }
    // The longest outputs fill the whole window.
    for (const double v : {-DBL_MIN, -DBL_MAX, -5e-324})
        EXPECT_EQ(num17(v).size(), kNum17Bytes);
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

TEST(ExportNum17, IntegerWindowSweepMatchesPrintf)
{
    // Under 5 % of raw bit patterns land in the integer path's window
    // (2^-36 <= |v| < 2^57, see export_util.hh), so sweep it: every
    // binary exponent from one below the window to one above it, with
    // 2000 random mantissas each, and 10^k +- 0..64 ulps for k in
    // [-12, 18]; both signs.
    const auto inWindow = [](double v) {
        return std::fabs(v) >= std::ldexp(1.0, -36) &&
               std::fabs(v) < std::ldexp(1.0, 57);
    };
    std::vector<double> values;
    SplitMix64 rng(0x5eed17);
    for (int e2 = -37; e2 <= 57; ++e2) {
        for (int i = 0; i < 2000; ++i) {
            const std::uint64_t bits =
                (rng.next() & ((std::uint64_t(1) << 52) - 1)) |
                (std::uint64_t(e2 + 1023) << 52);
            double v = 0.0;
            std::memcpy(&v, &bits, sizeof(v));
            values.push_back(v);
        }
    }
    for (int k = -12; k <= 18; ++k) {
        const double p = std::strtod(("1e" + std::to_string(k)).c_str(),
                                     nullptr);
        double below = p, above = p;
        values.push_back(p);
        for (int ulps = 1; ulps <= 64; ++ulps) {
            below = std::nextafter(below, 0.0);
            above = std::nextafter(above, DBL_MAX);
            values.push_back(below);
            values.push_back(above);
        }
    }
    std::size_t inside = 0, mismatches = 0;
    for (const double magnitude : values) {
        for (const double v : {magnitude, -magnitude}) {
            inside += inWindow(v);
            const std::string why = num17Mismatch(v);
            if (!why.empty() && ++mismatches <= 5)
                ADD_FAILURE() << why;
        }
    }
    EXPECT_EQ(mismatches, 0u);
    // 93 in-window exponents x 2000 mantissas, and 10^-10 .. 10^17
    // with their neighbours (1e-11 < 2^-36 and 1e18 >= 2^57), each at
    // both signs.
    EXPECT_EQ(inside, 2 * (93 * 2000 + 28 * 129));
    EXPECT_EQ(values.size(), 95 * 2000 + 31 * 129);
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
