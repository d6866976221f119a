/**
 * @file
 * Tests of the benchmark harness itself: the statistics it reports,
 * the span self-time arithmetic, the strict JSON reader, and every
 * output check firing on a deliberately corrupted result.
 */

#include <gtest/gtest.h>

#include "harness.hh"

namespace {

using namespace inca;
using namespace inca::bench;

// ---- Statistics ----------------------------------------------------
// Expected values are what Python's statistics.median and
// statistics.quantiles(v, n=4) return for the same inputs.

TEST(BenchStats, MedianOddEvenAndEmpty)
{
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(BenchStats, QuartilesMatchPythonExclusiveMethod)
{
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
    EXPECT_DOUBLE_EQ(q.q1, 2.75);
    EXPECT_DOUBLE_EQ(q.median, 5.5);
    EXPECT_DOUBLE_EQ(q.q3, 8.25);
    EXPECT_DOUBLE_EQ(q.relativeSpread(), 5.5 / 5.5);

    // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
    q = quartiles({1, 2, 3});
    EXPECT_DOUBLE_EQ(q.q1, 1.0);
    EXPECT_DOUBLE_EQ(q.q3, 3.0);

    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: with
    // the cut index clamped, the interpolation extrapolates.
    q = quartiles({2, 1});
    EXPECT_DOUBLE_EQ(q.q1, 0.75);
    EXPECT_DOUBLE_EQ(q.median, 1.5);
    EXPECT_DOUBLE_EQ(q.q3, 2.25);

    // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
    q = quartiles({5, 1, 4, 2, 3});
    EXPECT_DOUBLE_EQ(q.q1, 1.5);
    EXPECT_DOUBLE_EQ(q.q3, 4.5);
}

TEST(BenchStats, DegenerateQuartiles)
{
    const Quartiles one = quartiles({7.0});
    EXPECT_EQ(one.q1, 7.0);
    EXPECT_EQ(one.median, 7.0);
    EXPECT_EQ(one.q3, 7.0);
    EXPECT_EQ(one.relativeSpread(), 0.0);
    EXPECT_EQ(quartiles({}).relativeSpread(), 0.0);
}

TEST(BenchStats, ProbeAndClocksAdvance)
{
    EXPECT_GT(hostProbeSeconds(), 0.0);
    EXPECT_GT(peakRssMiB(), 0.0);
    const double c0 = cpuSeconds();
    hostProbeSeconds();
    EXPECT_GT(cpuSeconds(), c0);
}

// ---- Spans ---------------------------------------------------------

SpanRecord
span(std::int64_t start, std::int64_t end, int parent)
{
    SpanRecord s;
    s.name = "s";
    s.startNs = start;
    s.endNs = end;
    s.parent = parent;
    return s;
}

TEST(BenchSpans, SelfTimeSubtractsChildren)
{
    const std::vector<SpanRecord> spans = {
        span(0, 1000, -1),  // parent, 1000 ns
        span(100, 300, 0),  // child A, 200 ns
        span(500, 900, 0),  // child B, 400 ns
        span(600, 700, 2),  // grandchild: inside B, not the parent's
    };
    EXPECT_DOUBLE_EQ(selfSeconds(spans, 0), 400e-9);
    EXPECT_DOUBLE_EQ(selfSeconds(spans, 2), 300e-9);
    EXPECT_DOUBLE_EQ(selfSeconds(spans, 3), 100e-9);
}

TEST(BenchSpans, OverlappingAndOverhangingChildrenCountOnce)
{
    const std::vector<SpanRecord> spans = {
        span(0, 1000, -1),
        span(100, 400, 0),   // [100, 400)
        span(300, 600, 0),   // overlaps: union [100, 600)
        span(900, 1200, 0),  // overhangs the parent: clipped to 100
        span(2000, 3000, 0), // entirely outside: ignored
    };
    EXPECT_DOUBLE_EQ(selfSeconds(spans, 0), 1000e-9 - 500e-9 - 100e-9);
}

TEST(BenchSpans, RecorderNestsAndSerializes)
{
    SpanRecorder rec;
    {
        ScopedSpan outer(&rec, "outer", 7);
        ScopedSpan inner(&rec, "inner", 7);
    }
    ScopedSpan noop(nullptr, "ignored", 0);
    ASSERT_EQ(rec.spans().size(), 2u);
    EXPECT_EQ(rec.spans()[0].parent, -1);
    EXPECT_EQ(rec.spans()[1].parent, 0);
    EXPECT_EQ(rec.spans()[1].op, 7);
    EXPECT_GE(rec.seconds(0), rec.seconds(1));
    EXPECT_LE(selfSeconds(rec.spans(), 0), rec.seconds(0));
    EXPECT_DOUBLE_EQ(rec.opSeconds("inner", 7), rec.seconds(1));
    EXPECT_EQ(rec.opSeconds("inner", 8), 0.0);

    Json doc;
    std::string err;
    ASSERT_TRUE(parseJson(rec.chromeJson(), doc, &err)) << err;
    const Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->array.size(), 2u);
    EXPECT_EQ(events->array[1].find("args")->find("parent")->number, 0);
}

// ---- JSON ----------------------------------------------------------

TEST(BenchJson, AcceptsValidDocuments)
{
    Json doc;
    std::string err;
    ASSERT_TRUE(parseJson(" {\"a\": [1, -2.5e3, true, null], "
                          "\"b\": \"x\\u00e9\\n\"} ",
                          doc, &err))
        << err;
    EXPECT_EQ(doc.find("a")->array[1].number, -2500.0);
    EXPECT_EQ(doc.find("b")->string, "x\xc3\xa9\n");
    EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(BenchJson, RejectsWhatStrictParsersReject)
{
    for (const char *bad :
         {"", "{", "{\"a\": 1,}", "[1, 2,]", "{a: 1}", "[01]", "[1.]",
          "[NaN]", "[Infinity]", "[1e999]", "\"tab\there\"",
          "[\"\\x\"]", "{\"a\" 1}", "[1] [2]", "tru", "[+1]"}) {
        Json doc;
        std::string err;
        EXPECT_FALSE(parseJson(bad, doc, &err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(BenchJson, WithoutMemberStripsNestedObjectsAnywhere)
{
    const std::string in =
        "{\"a\": 1, \"provenance\": {\"threads\": 4, \"x\": \"}\"}, "
        "\"b\": {\"c\": 2, \"provenance\": [1, {\"d\": 3}]}, "
        "\"s\": \"provenance\"}";
    const std::string out = withoutMember(in, "provenance");
    Json doc;
    std::string err;
    ASSERT_TRUE(parseJson(out, doc, &err)) << err << ": " << out;
    EXPECT_EQ(doc.find("provenance"), nullptr);
    EXPECT_EQ(doc.find("b")->find("provenance"), nullptr);
    EXPECT_EQ(doc.find("b")->find("c")->number, 2);
    EXPECT_EQ(doc.find("s")->string, "provenance");
    EXPECT_EQ(withoutMember("{\"provenance\": 1}", "provenance"), "{}");
}

TEST(BenchDigest, Fnv1aReferenceValues)
{
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(hex64(0xabcULL), "0000000000000abc");
}

// ---- Output checks -------------------------------------------------

serving::ServingReport
servingReport()
{
    serving::ServingReport rep;
    rep.offered = 3;
    rep.completed = 1;
    rep.shed = 1;
    rep.timedOut = 1;
    return rep;
}

const char *kCsv3 = "id,stream\n0,0\n1,0\n2,1\n";

TEST(BenchChecks, ServePassesAConsistentReport)
{
    EXPECT_TRUE(checkServe(servingReport(), kCsv3, "{}").empty());
}

TEST(BenchChecks, ServeCatchesAnOutcomeCountOffByOne)
{
    serving::ServingReport rep = servingReport();
    rep.completed += 1;
    EXPECT_EQ(checkServe(rep, kCsv3, "{}").size(), 1u);
}

TEST(BenchChecks, ServeCatchesAShortCsv)
{
    EXPECT_EQ(checkServe(servingReport(), "id,stream\n0,0\n1,0\n", "{}")
                  .size(),
              1u);
    EXPECT_EQ(checkServe(servingReport(), "", "{}").size(), 1u);
}

TEST(BenchChecks, ServeCatchesMalformedJson)
{
    EXPECT_EQ(checkServe(servingReport(), kCsv3, "{\"a\": 1,}").size(),
              1u);
}

dse::Evaluation
point(std::uint64_t index, std::vector<double> objectives)
{
    dse::Evaluation e;
    e.candidate.index = index;
    e.scored = true;
    e.objectives = std::move(objectives);
    return e;
}

dse::ExploreResult
exploreResult()
{
    dse::ExploreResult res;
    res.evaluations.resize(4);
    res.frontier = {point(1, {1.0, 3.0}), point(2, {2.0, 2.0}),
                    point(3, {3.0, 1.0})};
    return res;
}

TEST(BenchChecks, ExplorePassesANonDominatedFrontier)
{
    EXPECT_TRUE(checkExplore(exploreResult(), 4, "{}").empty());
}

TEST(BenchChecks, ExploreCatchesADominatedFrontierPoint)
{
    dse::ExploreResult res = exploreResult();
    res.frontier.push_back(point(4, {2.5, 2.5})); // (2, 2) dominates it
    const auto errors = checkExplore(res, 4, "{}");
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("dominates"), std::string::npos);
}

TEST(BenchChecks, ExploreCatchesBudgetAndEmptyFrontier)
{
    dse::ExploreResult res = exploreResult();
    EXPECT_EQ(checkExplore(res, 5, "{}").size(), 1u);
    res.frontier.clear();
    EXPECT_EQ(checkExplore(res, 4, "{}").size(), 1u);
    res = exploreResult();
    res.frontier[0].scored = false;
    EXPECT_EQ(checkExplore(res, 4, "{}").size(), 1u);
}

reliability::CampaignResult
campaignResult()
{
    reliability::CampaignResult res;
    reliability::CampaignPoint p;
    p.sweep = "ber";
    p.accuracy = p.accuracyMin = p.accuracyMax = p.idealAccuracy = 0.9;
    res.curves = {{"inca", {p, p}}, {"ws", {p, p}}};
    res.trialsRun = 4 * 10;
    return res;
}

TEST(BenchChecks, CampaignPassesAConsistentResult)
{
    EXPECT_TRUE(checkCampaign(campaignResult(), 4, 10, "{}").empty());
}

TEST(BenchChecks, CampaignCatchesTrialCountAndAccuracyRange)
{
    reliability::CampaignResult res = campaignResult();
    res.trialsRun -= 1;
    EXPECT_EQ(checkCampaign(res, 4, 10, "{}").size(), 1u);

    res = campaignResult();
    res.curves[1].points[0].accuracyMax = 1.5;
    EXPECT_EQ(checkCampaign(res, 4, 10, "{}").size(), 1u);

    res = campaignResult();
    res.curves[0].points[1].accuracy = -0.1;
    EXPECT_EQ(checkCampaign(res, 4, 10, "{}").size(), 1u);

    res = campaignResult();
    res.curves[0].points.pop_back();
    res.trialsRun = 3 * 10;
    EXPECT_EQ(checkCampaign(res, 4, 10, "{}").size(), 2u);
}

} // namespace
