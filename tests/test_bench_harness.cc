/**
 * @file
 * Tests for the bench measurement layer: the BENCH_*.json schema and
 * the bench mains' command line (bench_json.hh), the trimmed-mean
 * statistic, the bench_compare kernel speedup gate, and the
 * early-exit phase-timer flush.
 *
 * The bench binaries themselves take minutes; everything here runs
 * the same code paths on synthetic fixtures in milliseconds, so the
 * measurement protocol is pinned by ctest rather than trusted on
 * faith. The schema tests parse real JsonReport output with the same
 * parser bench_compare uses in CI -- if the emitter and the gate ever
 * disagree about the format, this file is where it surfaces.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_compare.hh"
#include "bench_json.hh"
#include "common/trace.hh"
#include "json_lint.hh"
#include "sim/report.hh"

namespace inca {
namespace {

using bench::BenchRun;
using bench::JsonValue;
using bench::compareBench;
using bench::parseJson;
using bench::trimmedMean;

/* ------------------------------------------------------------------ */
/* Trimmed mean                                                       */
/* ------------------------------------------------------------------ */

TEST(TrimmedMean, TrimZeroIsThePlainMean)
{
    EXPECT_DOUBLE_EQ(trimmedMean({4.0}, 0), 4.0);
    EXPECT_DOUBLE_EQ(trimmedMean({1.0, 2.0, 3.0, 4.0}, 0), 2.5);
}

TEST(TrimmedMean, DropsTheExtremesFromEachEnd)
{
    // The outliers 100 and -100 must not contaminate the mean.
    EXPECT_DOUBLE_EQ(trimmedMean({100.0, 2.0, 3.0, 4.0, -100.0}, 1),
                     3.0);
    EXPECT_DOUBLE_EQ(
        trimmedMean({9.0, 1.0, 5.0, 5.0, 5.0, 0.0, 10.0}, 2), 5.0);
}

TEST(TrimmedMean, OrderIndependent)
{
    const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0, 5.0};
    const std::vector<double> shuffled = {4.0, 1.0, 5.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(trimmedMean(sorted, 1),
                     trimmedMean(shuffled, 1));
}

TEST(TrimmedMean, RejectsImpossibleTrims)
{
    EXPECT_DEATH((void)trimmedMean({1.0, 2.0}, 1), "cannot lose");
    EXPECT_DEATH((void)trimmedMean({}, 0), "cannot lose");
}

/* ------------------------------------------------------------------ */
/* JsonReport schema                                                  */
/* ------------------------------------------------------------------ */

BenchRun
makeRun(const std::string &name, const std::string &isa,
        std::vector<double> samples, int trim)
{
    BenchRun run;
    run.name = name;
    run.isa = isa;
    run.warmup = 2;
    run.trim = trim;
    run.samplesNs = std::move(samples);
    std::int64_t t = 1000;
    for (std::size_t i = 0; i < run.samplesNs.size(); ++i)
        run.timestampsUs.push_back(t += 250);
    return run;
}

TEST(BenchJson, ReportIsStrictlyValidJson)
{
    bench::JsonReport report;
    report.addBenchmark(
        makeRun("gemm", "scalar", {5.0, 1.0, 2.0, 3.0, 100.0}, 1));
    report.addBenchmark(makeRun("gemm", "avx2", {1.0, 2.0, 3.0}, 1));
    report.addPoint("speedup_vs_scalar", "gemm/avx2", 3.25);
    // Hostile label: escaping must keep the document valid.
    report.addPoint("speedup_vs_scalar", "we\"ird\\label", 1.0);
    EXPECT_TRUE(testutil::jsonValid(report.toJson()));
}

TEST(BenchJson, SchemaFieldsSurviveTheCompareParser)
{
    bench::JsonReport report;
    report.addBenchmark(
        makeRun("gemm", "scalar", {5.0, 1.0, 2.0, 3.0, 100.0}, 1));
    report.addPoint("speedup_vs_scalar", "gemm/scalar", 1.0);
    std::string err;
    const JsonValue root = parseJson(report.toJson(), err);
    ASSERT_TRUE(err.empty()) << err;

    const JsonValue *schema = root.get("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->string, std::string(bench::kBenchSchema));

    // The registered series and the process metrics travel along.
    const JsonValue *series = root.get("series");
    ASSERT_NE(series, nullptr);
    EXPECT_FALSE(series->object.empty());
    EXPECT_NE(root.get("metrics"), nullptr);

    const JsonValue *benches = root.get("benchmarks");
    ASSERT_NE(benches, nullptr);
    ASSERT_EQ(benches->array.size(), 1u);
    const JsonValue &b = benches->array[0];
    EXPECT_EQ(b.get("name")->string, "gemm");
    EXPECT_EQ(b.get("isa")->string, "scalar");
    EXPECT_EQ(b.get("unit")->string, "ns");
    EXPECT_EQ(b.get("warmup")->number, 2.0);
    EXPECT_EQ(b.get("trim")->number, 1.0);

    // Raw samples are preserved and the stored statistic matches a
    // recompute from them -- the file is self-checking.
    const JsonValue *samples = b.get("samples_ns");
    ASSERT_NE(samples, nullptr);
    ASSERT_EQ(samples->array.size(), 5u);
    std::vector<double> raw;
    for (const auto &v : samples->array)
        raw.push_back(v.number);
    EXPECT_DOUBLE_EQ(b.get("trimmed_mean_ns")->number,
                     trimmedMean(raw, 1));
    EXPECT_DOUBLE_EQ(b.get("trimmed_mean_ns")->number,
                     (2.0 + 3.0 + 5.0) / 3.0); // 1 and 100 trimmed

    // Timestamps: one per sample, strictly monotone.
    const JsonValue *stamps = b.get("timestamps_us");
    ASSERT_NE(stamps, nullptr);
    ASSERT_EQ(stamps->array.size(), samples->array.size());
    for (std::size_t i = 1; i < stamps->array.size(); ++i)
        EXPECT_LT(stamps->array[i - 1].number,
                  stamps->array[i].number);

    // Provenance block present with the pinned-environment keys.
    const JsonValue *prov = root.get("provenance");
    ASSERT_NE(prov, nullptr);
    EXPECT_NE(prov->get("threads"), nullptr);
    EXPECT_NE(prov->get("cache"), nullptr);
    const JsonValue *env = prov->get("env");
    ASSERT_NE(env, nullptr);
    for (const char *key :
         {"INCA_NUM_THREADS", "INCA_KERNEL_ISA", "INCA_TRACE",
          "INCA_METRICS", "INCA_CACHE"})
        EXPECT_NE(env->get(key), nullptr) << key;
}

/* ------------------------------------------------------------------ */
/* Bench command line                                                 */
/* ------------------------------------------------------------------ */

/** argv for @p args behind a program name; the strings must outlive
 * the returned pointers. */
std::vector<char *>
makeArgv(std::vector<std::string> &args)
{
    static std::string prog = "bench_x";
    std::vector<char *> argv = {prog.data()};
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    return argv;
}

std::string
jsonPathOf(std::vector<std::string> args)
{
    std::vector<char *> argv = makeArgv(args);
    return bench::benchJsonPath(int(argv.size()) - 1, argv.data());
}

TEST(BenchArgs, JsonPathInEitherFormOrNone)
{
    EXPECT_EQ(jsonPathOf({}), "");
    EXPECT_EQ(jsonPathOf({"--json", "a.json"}), "a.json");
    EXPECT_EQ(jsonPathOf({"--json=b.json"}), "b.json");
}

TEST(BenchArgs, ExtractLeavesTheOtherArguments)
{
    // The examples take positionals next to --json.
    std::vector<std::string> args = {"vgg16", "--json", "c.json", "8"};
    std::vector<char *> argv = makeArgv(args);
    int argc = int(argv.size()) - 1;
    EXPECT_EQ(bench::extractJsonPath(argc, argv.data()), "c.json");
    ASSERT_EQ(argc, 3);
    EXPECT_STREQ(argv[1], "vgg16");
    EXPECT_STREQ(argv[2], "8");
    EXPECT_EQ(argv[3], nullptr);
}

TEST(BenchArgsDeath, UnknownArgumentIsFatal)
{
    EXPECT_DEATH(jsonPathOf({"--jsn", "x.json"}),
                 "unknown argument '--jsn' \\(usage: bench_x "
                 "\\[--json PATH\\]\\)");
    EXPECT_DEATH(jsonPathOf({"--benchmark_filter=NONE"}),
                 "unknown argument '--benchmark_filter=NONE'");
    EXPECT_DEATH(jsonPathOf({"--json", "a.json", "extra"}),
                 "unknown argument 'extra'");
}

TEST(BenchArgsDeath, JsonWithoutAPathIsFatal)
{
    EXPECT_DEATH(jsonPathOf({"--json"}), "--json needs a path");
    EXPECT_DEATH(jsonPathOf({"--json="}), "--json needs a path");
    EXPECT_DEATH(jsonPathOf({"--json", ""}), "--json needs a path");
}

/* ------------------------------------------------------------------ */
/* parseJson                                                          */
/* ------------------------------------------------------------------ */

TEST(BenchParseJson, ParsesTheBasics)
{
    std::string err;
    const JsonValue v = parseJson(
        "{\"a\": [1, -2.5, 3e2], \"b\": {\"c\": \"x\\ny\"}, "
        "\"t\": true, \"f\": false, \"n\": null}",
        err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_EQ(v.kind, JsonValue::Kind::Object);
    ASSERT_NE(v.get("a"), nullptr);
    ASSERT_EQ(v.get("a")->array.size(), 3u);
    EXPECT_DOUBLE_EQ(v.get("a")->array[0].number, 1.0);
    EXPECT_DOUBLE_EQ(v.get("a")->array[1].number, -2.5);
    EXPECT_DOUBLE_EQ(v.get("a")->array[2].number, 300.0);
    EXPECT_EQ(v.get("b")->get("c")->string, "x\ny");
    EXPECT_TRUE(v.get("t")->boolean);
    EXPECT_FALSE(v.get("f")->boolean);
    EXPECT_EQ(v.get("n")->kind, JsonValue::Kind::Null);
    EXPECT_EQ(v.get("missing"), nullptr);
}

TEST(BenchParseJson, RejectsMalformedDocuments)
{
    const char *bad[] = {
        "",
        "{",
        "{\"a\": }",
        "{\"a\": 1,}",
        "[1, 2",
        "\"unterminated",
        "{\"a\": 1} trailing",
        "{\"bad\\q\": 1}",
        "nope",
        "1..2",
    };
    for (const char *doc : bad) {
        std::string err;
        (void)parseJson(doc, err);
        EXPECT_FALSE(err.empty()) << "'" << doc << "'";
    }
}

/* ------------------------------------------------------------------ */
/* compareBench                                                       */
/* ------------------------------------------------------------------ */

/** Minimal on-schema document from (name, isa, mean) triples. */
std::string
makeDoc(const std::vector<std::tuple<std::string, std::string,
                                     double>> &entries)
{
    std::string out = "{\"schema\": \"inca.bench.v1\", "
                      "\"benchmarks\": [";
    bool first = true;
    for (const auto &[name, isa, mean] : entries) {
        if (!first)
            out += ", ";
        first = false;
        out += "{\"name\": \"" + name + "\", \"isa\": \"" + isa +
               "\", \"trimmed_mean_ns\": " + std::to_string(mean) +
               "}";
    }
    return out + "]}";
}

TEST(BenchCompare, IdenticalFilesPass)
{
    const std::string doc =
        makeDoc({{"gemm", "scalar", 100.0}, {"gemm", "avx2", 25.0}});
    const auto res = compareBench(doc, doc);
    EXPECT_TRUE(res.ok);
    EXPECT_TRUE(res.error.empty());
    EXPECT_TRUE(res.regressions.empty());
    EXPECT_TRUE(res.notes.empty());
}

TEST(BenchCompare, SlowdownsPastTheThresholdFail)
{
    const auto base =
        makeDoc({{"gemm", "scalar", 100.0}, {"gemm", "avx2", 25.0}});
    // The avx2 entry +30% against the same scalar: regression.
    auto res = compareBench(
        base,
        makeDoc({{"gemm", "scalar", 100.0}, {"gemm", "avx2", 32.5}}));
    EXPECT_FALSE(res.ok);
    ASSERT_EQ(res.regressions.size(), 1u);
    EXPECT_NE(res.regressions[0].find("gemm|avx2"),
              std::string::npos);

    // +10% with a 15% gate: fine, and not even a note.
    res = compareBench(
        base,
        makeDoc({{"gemm", "scalar", 100.0}, {"gemm", "avx2", 27.5}}));
    EXPECT_TRUE(res.ok);
    EXPECT_TRUE(res.notes.empty());
}

TEST(BenchCompare, ImprovementsAreNotesNotFailures)
{
    const auto res = compareBench(
        makeDoc({{"gemm", "scalar", 100.0}, {"gemm", "avx2", 25.0}}),
        makeDoc({{"gemm", "scalar", 100.0}, {"gemm", "avx2", 12.5}}));
    EXPECT_TRUE(res.ok);
    ASSERT_EQ(res.notes.size(), 1u);
    EXPECT_NE(res.notes[0].find("improved"), std::string::npos);
}

TEST(BenchCompare, MissingEntriesAreNotes)
{
    const auto base = makeDoc(
        {{"gemm", "scalar", 100.0}, {"gemm", "avx512", 10.0}});
    const auto cur = makeDoc({{"gemm", "scalar", 100.0}});

    // The runner lacking the baseline's AVX-512 is a note.
    auto res = compareBench(base, cur);
    EXPECT_TRUE(res.ok);
    ASSERT_EQ(res.notes.size(), 1u);
    EXPECT_NE(res.notes[0].find("missing"), std::string::npos);

    // The reverse -- a new benchmark with no baseline -- is a note
    // too.
    res = compareBench(cur, base);
    EXPECT_TRUE(res.ok);
    ASSERT_EQ(res.notes.size(), 1u);
    EXPECT_NE(res.notes[0].find("no baseline"), std::string::npos);
}

TEST(BenchCompare, RelativeToScalarGatesTheSpeedupNotTheMachine)
{
    // The current machine is uniformly 3x slower, but the avx2
    // speedup (4x) is intact: pass.
    const auto base = makeDoc(
        {{"gemm", "scalar", 100.0}, {"gemm", "avx2", 25.0}});
    const auto slowMachine = makeDoc(
        {{"gemm", "scalar", 300.0}, {"gemm", "avx2", 75.0}});
    auto res = compareBench(base, slowMachine);
    EXPECT_TRUE(res.ok) << (res.regressions.empty()
                                ? ""
                                : res.regressions[0]);
    EXPECT_TRUE(res.notes.empty());

    // Same machine speed, but the avx2 kernel lost half its edge
    // (4x -> 2x): that IS the regression the gate exists for.
    const auto lostEdge = makeDoc(
        {{"gemm", "scalar", 100.0}, {"gemm", "avx2", 50.0}});
    res = compareBench(base, lostEdge);
    EXPECT_FALSE(res.ok);
    ASSERT_EQ(res.regressions.size(), 1u);
    EXPECT_NE(res.regressions[0].find("gemm|avx2"),
              std::string::npos);

    // Benchmarks without a scalar twin are not gated (and scalar
    // entries themselves are denominators, not comparisons).
    const auto noTwin = makeDoc({{"solo", "scalar", 100.0},
                                 {"orphan", "avx2", 10.0}});
    const auto noTwinSlow = makeDoc({{"solo", "scalar", 900.0},
                                     {"orphan", "avx2", 90.0}});
    res = compareBench(noTwin, noTwinSlow);
    EXPECT_TRUE(res.ok);
    EXPECT_TRUE(res.notes.empty());
}

TEST(BenchCompare, OffSchemaFilesAreErrors)
{
    const auto good = makeDoc({{"gemm", "scalar", 100.0}});
    const char *bad[] = {
        "{\"benchmarks\": []}",                       // no schema
        "{\"schema\": \"inca.bench.v999\", "
        "\"benchmarks\": []}",                        // wrong version
        "{\"schema\": \"inca.bench.v1\"}",            // no benchmarks
        "{\"schema\": \"inca.bench.v1\", \"benchmarks\": "
        "[{\"name\": \"x\"}]}",                       // entry fields
        "not json at all",
    };
    for (const char *doc : bad) {
        auto res = compareBench(doc, good);
        EXPECT_FALSE(res.ok) << doc;
        EXPECT_FALSE(res.error.empty()) << doc;
        EXPECT_NE(res.error.find("baseline"), std::string::npos);
        // Same failure on the current side is attributed to it.
        res = compareBench(good, doc);
        EXPECT_FALSE(res.ok) << doc;
        EXPECT_NE(res.error.find("current"), std::string::npos);
    }
}

/* ------------------------------------------------------------------ */
/* Early-exit phase flush                                             */
/* ------------------------------------------------------------------ */

TEST(PhaseFlush, StopFlushesLivePhaseTimersExactlyOnce)
{
    sim::clearPhaseTimes();
    trace::start("");
    std::string json;
    {
        sim::ScopedPhaseTimer timer("flushtest");
        // Simulate the fatal() path: the trace stops (atexit order)
        // while the phase scope is still open. The atFlush hook must
        // record the phase's elapsed time NOW -- after this, the
        // process would be gone.
        json = trace::stop();

        const auto phases = sim::phaseTimes();
        ASSERT_EQ(phases.size(), 1u);
        EXPECT_EQ(phases[0].phase, "flushtest");
        EXPECT_GE(phases[0].seconds, 0.0);
    }
    // The flushed span is in the trace output as a complete event...
    EXPECT_TRUE(testutil::jsonValid(json));
    EXPECT_NE(json.find("phase flushtest"), std::string::npos);

    // ...and the normal scope exit must NOT record a second entry.
    const auto phases = sim::phaseTimes();
    ASSERT_EQ(phases.size(), 1u);
    EXPECT_EQ(phases[0].phase, "flushtest");
    sim::clearPhaseTimes();
    trace::clear();
}

TEST(PhaseFlush, NormalScopeExitStillRecordsWithoutTracing)
{
    sim::clearPhaseTimes();
    {
        sim::ScopedPhaseTimer timer("normal");
    }
    const auto phases = sim::phaseTimes();
    ASSERT_EQ(phases.size(), 1u);
    EXPECT_EQ(phases[0].phase, "normal");
    sim::clearPhaseTimes();
}

TEST(PhaseFlush, FlushIsIdempotentPerTimer)
{
    sim::clearPhaseTimes();
    {
        sim::ScopedPhaseTimer timer("idem");
        sim::flushLivePhaseTimers();
        sim::flushLivePhaseTimers(); // second call: no new record
        const auto phases = sim::phaseTimes();
        ASSERT_EQ(phases.size(), 1u);
        EXPECT_EQ(phases[0].phase, "idem");
    }
    EXPECT_EQ(sim::phaseTimes().size(), 1u);
    sim::clearPhaseTimes();
}

} // namespace
} // namespace inca
