/**
 * @file
 * The evaluation memo's correctness contract, tested differentially:
 * the Explorer's "dse.eval" memo must leave every explore output
 * (evaluations, frontier JSON/CSV, journal) byte-identical with
 * memoization on or off at every thread count, because a hit returns
 * a copy of a value computed by the exact same arithmetic. Plus the
 * mechanics that contract rests on: one miss per distinct candidate,
 * per-Explorer counters, canonical keys, and the INCA_CACHE switch
 * parsing.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "common/cache.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "dse/explorer.hh"
#include "json_lint.hh"
#include "test_fixtures.hh"

namespace inca {
namespace {

/** A 9-point space small enough for annealing to revisit states. */
dse::SearchSpace
memoSpace()
{
    dse::SearchSpace space;
    space.axis("plane", {8, 16, 32});
    space.axis("adc_bits", {4, 5, 6});
    return space;
}

/** Anneal over memoSpace(): 48 proposals in waves of 8. */
dse::ExploreOptions
memoOptions(const std::string &journalPath = "")
{
    dse::ExploreOptions opt;
    opt.network = "lenet5";
    opt.strategy = dse::StrategyKind::Anneal;
    opt.budget = 48;
    opt.evalBatch = 8;
    opt.journalPath = journalPath;
    return opt;
}

/**
 * Every number of every evaluation, rendered with full double
 * precision. Byte-equality of two transcripts is bit-equality of two
 * evaluation streams.
 */
std::string
transcript(const std::vector<dse::Evaluation> &evals)
{
    std::ostringstream os;
    char buf[64];
    const auto num = [&](double v) {
        std::snprintf(buf, sizeof buf, "%.17g ", v);
        os << buf;
    };
    for (const dse::Evaluation &e : evals) {
        os << e.candidate.index << " " << e.feasible << e.scored
           << e.reused << " [" << e.rejectedBy << "] ";
        for (const double v :
             {e.areaM2, e.idlePowerW, e.utilization, e.accuracy,
              e.resilience, e.energyJ, e.latencyS, e.run.latency,
              e.run.staticEnergy})
            num(v);
        for (const double v : e.objectives)
            num(v);
        for (const auto &layer : e.run.layers) {
            os << layer.name << ":";
            for (const auto &[stat, value] : layer.stats.entries()) {
                os << stat << "=";
                num(value);
            }
        }
        os << e.configKeyHash << "\n";
    }
    return os.str();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Every explore output of one memoOptions() run, concatenated. */
std::string
exploreOutputs(const std::string &journalPath)
{
    dse::Explorer explorer(memoSpace(), memoOptions(journalPath));
    const dse::ExploreResult result = explorer.run();
    return transcript(result.evaluations) + "--\n" +
           testutil::withoutProvenance(
               dse::frontierJson(explorer, result)) +
           "--\n" +
           dse::frontierCsv(explorer.space(), result.frontier,
                            explorer.options().objectives) +
           "--\n" + slurp(journalPath);
}

std::uint64_t
distinctProposals(const dse::ExploreResult &result)
{
    std::set<std::uint64_t> seen;
    for (const dse::Evaluation &e : result.evaluations)
        seen.insert(e.candidate.index);
    return seen.size();
}

/** The process-wide "dse.eval" row (summed over Explorers). */
CacheStatsSnapshot
processMemoStats()
{
    for (const CacheStatsSnapshot &s : cacheStats())
        if (s.name == "dse.eval")
            return s;
    return {};
}

/** Restore cache/thread globals however a test exits. */
class EvalCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearAllCaches();
        setCacheEnabled(true);
    }

    void
    TearDown() override
    {
        // gtest_discover_tests runs each TEST in its own process, so
        // the globals this suite pokes cannot leak across tests; put
        // them back to the env defaults anyway for manual runs.
        ThreadPool::setGlobalThreads(1);
        setCacheEnabled(cacheEnabledFromEnv(
            std::getenv("INCA_CACHE")));
        clearAllCaches();
    }
};

TEST_F(EvalCacheTest, CachedSweepIsByteIdenticalAtEveryThreadCount)
{
    const std::string journal =
        ::testing::TempDir() + "/eval_cache_memo.jsonl";
    setCacheEnabled(false);
    const std::string reference = exploreOutputs(journal);
    ASSERT_FALSE(reference.empty());

    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        ThreadPool::setGlobalThreads(threads);
        setCacheEnabled(true);
        EXPECT_EQ(exploreOutputs(journal), reference);
        setCacheEnabled(false);
        EXPECT_EQ(exploreOutputs(journal), reference);
    }
    std::remove(journal.c_str());
}

TEST_F(EvalCacheTest, RepeatedRunsHitTheCache)
{
    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        ThreadPool::setGlobalThreads(threads);
        clearAllCaches();
        std::uint64_t proposals = 0, distinct = 0;
        {
            dse::Explorer explorer(memoSpace(), memoOptions());
            const dse::ExploreResult result = explorer.run();
            proposals = result.evaluations.size();
            distinct = distinctProposals(result);
            // The anneal revisits states, or this test proves nothing.
            ASSERT_LT(distinct, proposals);
            // Memo hits are still scored, non-replayed proposals.
            EXPECT_EQ(result.scored, proposals);
            EXPECT_EQ(result.reused, 0u);

            const CacheStatsSnapshot s = explorer.memoStats();
            EXPECT_EQ(s.name, "dse.eval");
            EXPECT_EQ(s.misses, distinct);
            EXPECT_EQ(s.hits, proposals - distinct);
            EXPECT_EQ(s.entries, distinct);
        }
        // The Explorer is gone; the process report still has its memo.
        const CacheStatsSnapshot s = processMemoStats();
        EXPECT_EQ(s.misses, distinct);
        EXPECT_EQ(s.hits, proposals - distinct);
    }
}

TEST_F(EvalCacheTest, TracedRunEmitsMemoCounterEvents)
{
    // A traced run shows what the memo bought as Chrome counter
    // tracks next to the spans.
    trace::clear();
    trace::start("");
    {
        dse::Explorer explorer(memoSpace(), memoOptions());
        explorer.run();
    }
    const std::vector<trace::Event> events = trace::snapshot();
    trace::stop();
    trace::clear();
    std::set<std::string> counters;
    for (const trace::Event &e : events)
        if (e.ph == 'C')
            counters.insert(e.name);
    EXPECT_EQ(counters.count("cache.dse.eval.hits"), 1u);
    EXPECT_EQ(counters.count("cache.dse.eval.misses"), 1u);
}

TEST_F(EvalCacheTest, DisabledCacheComputesEveryTime)
{
    setCacheEnabled(false);
    EvalCache<int> cache("test.disabled");
    int calls = 0;
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(cache.getOrCompute(7, [&] { return ++calls; }), i + 1);
    EXPECT_EQ(calls, 3);
    const auto s = cache.stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.entries, 0u);

    // The Explorer's memo records nothing either: every proposal is
    // scored from scratch.
    dse::Explorer explorer(memoSpace(), memoOptions());
    EXPECT_EQ(explorer.run().scored, 48u);
    EXPECT_EQ(explorer.memoStats().hits + explorer.memoStats().misses,
              0u);
}

TEST_F(EvalCacheTest, ClearResetsEntriesAndCounters)
{
    EvalCache<int> cache("test.clear");
    (void)cache.getOrCompute(1, [] { return 1; });
    (void)cache.getOrCompute(1, [] { return 1; });
    cache.clear();
    const auto s = cache.stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(cache.getOrCompute(1, [] { return 2; }), 2);
}

TEST_F(EvalCacheTest, ExportFrontierRunsHitsTheMemo)
{
    dse::Explorer explorer(memoSpace(), memoOptions());
    const dse::ExploreResult result = explorer.run();
    ASSERT_FALSE(result.frontier.empty());
    const CacheStatsSnapshot before = explorer.memoStats();

    const std::string prefix = ::testing::TempDir() + "/memo_export";
    dse::exportFrontierRuns(explorer, result, prefix);

    const CacheStatsSnapshot after = explorer.memoStats();
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.hits, before.hits + result.frontier.size());
    for (const dse::Evaluation &e : result.frontier) {
        const std::string base =
            prefix + "-" + std::to_string(e.candidate.index);
        std::remove((base + ".csv").c_str());
        std::remove((base + ".json").c_str());
    }
}

TEST_F(EvalCacheTest, ExplorersKeepSeparateCounts)
{
    // Two live Explorers (as design_space holds them): building or
    // running the second must not reset or feed the first's counts.
    dse::Explorer first(memoSpace(), memoOptions());
    const dse::ExploreResult a = first.run();
    const CacheStatsSnapshot firstStats = first.memoStats();

    dse::ExploreOptions opt = memoOptions();
    opt.seed = 2;
    dse::Explorer second(memoSpace(), opt);
    const dse::ExploreResult b = second.run();

    EXPECT_EQ(first.memoStats().hits, firstStats.hits);
    EXPECT_EQ(first.memoStats().misses, distinctProposals(a));
    EXPECT_EQ(second.memoStats().misses, distinctProposals(b));
    EXPECT_EQ(second.memoStats().hits,
              b.evaluations.size() - distinctProposals(b));

    // The process row sums both.
    EXPECT_EQ(processMemoStats().misses,
              distinctProposals(a) + distinctProposals(b));
}

TEST(CacheKeyTest, SameFieldsSameKey)
{
    CacheKey a, b;
    a.add(7).add(3.5).add(true).add("vgg16");
    b.add(7).add(3.5).add(true).add("vgg16");
    EXPECT_EQ(a.bytes(), b.bytes());
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_TRUE(a == b);
}

TEST(CacheKeyTest, TypeTagsPreventCrossTypeAliasing)
{
    // 1 as int, int64, uint64, double, and bool all carry different
    // tags; none of the five keys may collide.
    std::vector<CacheKey> keys(5);
    keys[0].add(1);
    keys[1].add(std::int64_t(1));
    keys[2].add(std::uint64_t(1));
    keys[3].add(1.0);
    keys[4].add(true);
    for (size_t i = 0; i < keys.size(); ++i)
        for (size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i].bytes(), keys[j].bytes()) << i << j;
}

TEST(CacheKeyTest, LengthPrefixPreventsStringConcatAliasing)
{
    CacheKey a, b;
    a.add("ab").add("c");
    b.add("a").add("bc");
    EXPECT_NE(a.bytes(), b.bytes());
}

TEST(CacheKeyTest, FieldOrderMatters)
{
    CacheKey a, b;
    a.add(1).add(2);
    b.add(2).add(1);
    EXPECT_NE(a.bytes(), b.bytes());
}

TEST(CacheKeyTest, ConfigKeySeparatesDesignPoints)
{
    const auto points = inca::testing::sweepPoints();
    std::vector<std::string> keys;
    for (const auto &p : points) {
        CacheKey k;
        arch::appendKey(k, inca::testing::incaPointConfig(p));
        keys.push_back(k.bytes());
    }
    for (size_t i = 0; i < keys.size(); ++i)
        for (size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << i << j;
}

TEST(CacheEnvTest, ParsesTheDocumentedSpellings)
{
    EXPECT_TRUE(cacheEnabledFromEnv(nullptr));
    EXPECT_TRUE(cacheEnabledFromEnv(""));
    EXPECT_TRUE(cacheEnabledFromEnv("1"));
    EXPECT_TRUE(cacheEnabledFromEnv("on"));
    EXPECT_TRUE(cacheEnabledFromEnv("true"));
    EXPECT_TRUE(cacheEnabledFromEnv("yes"));
    EXPECT_FALSE(cacheEnabledFromEnv("0"));
    EXPECT_FALSE(cacheEnabledFromEnv("off"));
    EXPECT_FALSE(cacheEnabledFromEnv("OFF"));
    EXPECT_FALSE(cacheEnabledFromEnv("false"));
    EXPECT_FALSE(cacheEnabledFromEnv("False"));
    EXPECT_FALSE(cacheEnabledFromEnv("no"));
    // Unrecognized values keep the safe default (on).
    EXPECT_TRUE(cacheEnabledFromEnv("maybe"));
}

} // namespace
} // namespace inca
