/**
 * @file
 * Design-space exploration subsystem tests: RNG and strategy
 * determinism, space indexing, Pareto dominance, constraint
 * filtering, journal round-trip/resume, thread-count invariance of
 * the frontier, and JSON lint of every machine-readable artifact.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/cache.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "driver_specs.hh"
#include "dse/explorer.hh"
#include "dse/journal.hh"
#include "dse/pareto.hh"
#include "json_lint.hh"
#include "nn/model_zoo.hh"

namespace inca {
namespace dse {
namespace {

// ---------------------------------------------------------------
// SplitMix64

TEST(SplitMix64, DeterministicStream)
{
    SplitMix64 a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, SeedsDiverge)
{
    SplitMix64 a(1), b(2);
    bool differ = false;
    for (int i = 0; i < 8; ++i)
        differ = differ || a.next() != b.next();
    EXPECT_TRUE(differ);
}

TEST(SplitMix64, UniformInUnitInterval)
{
    SplitMix64 rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(SplitMix64, BelowInRange)
{
    SplitMix64 rng(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(SplitMix64, SplitIsIndependent)
{
    SplitMix64 root(5);
    SplitMix64 child = root.split();
    // The child stream is not a shifted copy of the parent's.
    SplitMix64 rootCopy(5);
    rootCopy.next(); // account for the split() draw
    EXPECT_NE(child.next(), rootCopy.next());
}

// ---------------------------------------------------------------
// SearchSpace

SearchSpace
tinySpace()
{
    SearchSpace space;
    space.axis("plane", {8, 16});
    space.axis("adc_bits", {3, 4, 6});
    return space;
}

TEST(SearchSpace, SizeIsCrossProduct)
{
    EXPECT_EQ(tinySpace().size(), 6u);
}

TEST(SearchSpace, IndexRoundTrip)
{
    const SearchSpace space = tinySpace();
    for (std::uint64_t i = 0; i < space.size(); ++i) {
        const Candidate c = space.candidate(i);
        EXPECT_EQ(c.index, i);
        std::vector<std::size_t> valueIndices;
        for (std::size_t a = 0; a < space.numAxes(); ++a) {
            const auto &vals = space.axes()[a].values;
            const auto it = std::find(vals.begin(), vals.end(),
                                      c.values[a]);
            ASSERT_NE(it, vals.end());
            valueIndices.push_back(
                std::size_t(it - vals.begin()));
        }
        EXPECT_EQ(space.flatIndex(valueIndices), i);
    }
}

TEST(SearchSpace, FirstAxisFastest)
{
    const SearchSpace space = tinySpace();
    EXPECT_EQ(space.candidate(0).values,
              (std::vector<std::int64_t>{8, 3}));
    EXPECT_EQ(space.candidate(1).values,
              (std::vector<std::int64_t>{16, 3}));
    EXPECT_EQ(space.candidate(2).values,
              (std::vector<std::int64_t>{8, 4}));
}

TEST(SearchSpace, ValueWithFallback)
{
    const SearchSpace space = tinySpace();
    const Candidate c = space.candidate(3);
    EXPECT_EQ(space.value(c, "plane", -1), 16);
    EXPECT_EQ(space.value(c, "absent", 99), 99);
}

TEST(SearchSpace, NeighborsAreOneStepMoves)
{
    const SearchSpace space = tinySpace();
    // Candidate 0 is (plane=8, adc=3): neighbors are plane+1 step
    // (index 1) and adc+1 step (index 2).
    const auto n0 = space.neighbors(0);
    EXPECT_EQ(n0, (std::vector<std::uint64_t>{1, 2}));
    // Candidate 3 is (16, 4): plane-1 -> 2, adc-1 -> 1, adc+1 -> 5.
    const auto n3 = space.neighbors(3);
    EXPECT_EQ(n3, (std::vector<std::uint64_t>{2, 1, 5}));
}

TEST(SearchSpace, IsoCapacityRescalesTiles)
{
    SearchSpace space;
    space.axis("plane", {8});
    const arch::IncaConfig base = arch::paperInca();
    const arch::IncaConfig cfg = materializeInca(
        space, space.candidate(0), base, /*isoCapacity=*/true);
    EXPECT_EQ(cfg.subarraySize, 8);
    // Hand-check the exact arithmetic design_space historically used.
    arch::IncaConfig manual = base;
    const std::int64_t cellsBefore = manual.totalCells();
    manual.subarraySize = 8;
    const double scale =
        double(cellsBefore) / double(manual.totalCells());
    manual.org.numTiles =
        std::max(1, int(manual.org.numTiles * scale + 0.5));
    EXPECT_EQ(cfg.org.numTiles, manual.org.numTiles);
}

TEST(SearchSpaceDeath, UnknownAxisIsFatal)
{
    SearchSpace space;
    space.axis("no_such_axis", {1});
    EXPECT_DEATH(materializeInca(space, space.candidate(0),
                                 arch::paperInca(), false),
                 "axis");
}

TEST(Space, MaxConvWindowSkipsStemConv)
{
    // ResNet18's 7x7 stem conv goes through the digital input path;
    // the ADC bound is over the 3x3 body -- the paper's "9 > 7".
    EXPECT_EQ(maxConvWindow(nn::resnet18()), 9);
}

// ---------------------------------------------------------------
// Pareto

Evaluation
point(std::uint64_t index, std::vector<double> objectives)
{
    Evaluation e;
    e.candidate.index = index;
    e.feasible = true;
    e.scored = true;
    e.objectives = std::move(objectives);
    return e;
}

TEST(Pareto, DominatesHandCases)
{
    EXPECT_TRUE(dominates({1, 1}, {2, 2}));
    EXPECT_TRUE(dominates({1, 2}, {1, 3}));
    EXPECT_FALSE(dominates({1, 3}, {3, 1})); // incomparable
    EXPECT_FALSE(dominates({1, 1}, {1, 1})); // equal: no strict win
}

TEST(Pareto, InsertEvictsDominated)
{
    ParetoFrontier f(2);
    EXPECT_TRUE(f.insert(point(0, {2, 2})));
    EXPECT_TRUE(f.insert(point(1, {1, 3}))); // incomparable
    EXPECT_TRUE(f.insert(point(2, {1, 1}))); // dominates both
    EXPECT_EQ(f.size(), 1u);
    EXPECT_EQ(f.points()[0].candidate.index, 2u);
    EXPECT_FALSE(f.insert(point(3, {1, 2}))); // dominated
}

TEST(Pareto, EqualVectorsBothKept)
{
    ParetoFrontier f(2);
    EXPECT_TRUE(f.insert(point(0, {1, 2})));
    EXPECT_TRUE(f.insert(point(1, {1, 2})));
    EXPECT_EQ(f.size(), 2u);
}

TEST(Pareto, RevisitedCandidateNotDuplicated)
{
    ParetoFrontier f(2);
    EXPECT_TRUE(f.insert(point(7, {1, 2})));
    EXPECT_FALSE(f.insert(point(7, {1, 2})));
    EXPECT_EQ(f.size(), 1u);
}

TEST(Pareto, InsertionOrderIndependent)
{
    std::vector<Evaluation> pts = {
        point(0, {5, 1}), point(1, {1, 5}), point(2, {3, 3}),
        point(3, {4, 4}), // dominated by 2
        point(4, {2, 4}),
    };
    std::vector<std::size_t> order = {0, 1, 2, 3, 4};
    std::vector<std::uint64_t> reference;
    do {
        ParetoFrontier f(2);
        for (const std::size_t i : order)
            f.insert(pts[i]);
        std::vector<std::uint64_t> got;
        for (const auto &e : f.sorted())
            got.push_back(e.candidate.index);
        if (reference.empty())
            reference = got;
        EXPECT_EQ(got, reference);
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_EQ(reference,
              (std::vector<std::uint64_t>{0, 1, 2, 4}));
}

// ---------------------------------------------------------------
// Constraints

TEST(Constraints, ParseAndPrint)
{
    Constraints c;
    EXPECT_TRUE(c.empty());
    c.set("max_area_mm2=450");
    c.set("lossless_adc=1");
    EXPECT_FALSE(c.empty());
    EXPECT_DOUBLE_EQ(c.maxAreaMm2, 450.0);
    EXPECT_TRUE(c.losslessAdc);
    EXPECT_EQ(c.str(), "max_area_mm2=450,lossless_adc=1");
}

TEST(ConstraintsDeath, UnknownKeyIsFatal)
{
    Constraints c;
    EXPECT_DEATH(c.set("max_teapots=7"), "unknown constraint");
}

TEST(ConstraintsDeath, NonFiniteOrNegativeValueIsFatal)
{
    // Each bound reads <= 0 as unset and NaN fails every comparison,
    // so accepting these would switch the bound off without a word.
    for (const char *kv :
         {"max_area_mm2=nan", "max_area_mm2=-nan", "max_area_mm2=inf",
          "max_area_mm2=1e999", "max_area_mm2=-5",
          "min_utilization=-1", "min_availability=nan",
          "max_p99_ms=nan"}) {
        SCOPED_TRACE(kv);
        const std::string key =
            std::string(kv).substr(0, std::string(kv).find('='));
        Constraints c;
        EXPECT_EXIT(c.set(kv), ::testing::ExitedWithCode(1),
                    "constraint '" + key + "'");
    }
}

TEST(Constraints, RejectionNamesTheBound)
{
    Constraints c;
    c.set("max_area_mm2=1");
    Evaluation e;
    e.areaM2 = 5e-6; // 5 mm^2
    const auto check =
        checkConstraints(c, e, EngineKind::Inca, 4, 9);
    EXPECT_FALSE(check.ok);
    EXPECT_NE(check.reason.find("max_area_mm2"), std::string::npos);
    EXPECT_NE(check.reason.find("5"), std::string::npos);
}

TEST(Constraints, LosslessAdcOnlyBindsInca)
{
    Constraints c;
    c.set("lossless_adc=1");
    Evaluation e;
    // 3-bit ADC vs a 3x3 window: 7 < 9 clips under IS...
    EXPECT_FALSE(
        checkConstraints(c, e, EngineKind::Inca, 3, 9).ok);
    // ...but the WS pipeline shift-adds partial sums: no bound.
    EXPECT_TRUE(checkConstraints(c, e, EngineKind::Ws, 3, 9).ok);
    // 4 bits (15 levels) cover the window.
    EXPECT_TRUE(checkConstraints(c, e, EngineKind::Inca, 4, 9).ok);
}

TEST(Objectives, AccuracyProxyMonotoneInBits)
{
    double prev = -1.0;
    for (const int bits : {2, 3, 4, 6, 8}) {
        const double a =
            accuracyProxy(EngineKind::Inca, bits, 9, 0.05);
        EXPECT_GE(a, prev);
        prev = a;
    }
}

TEST(Objectives, AccuracyProxyNoiseHurtsWsMore)
{
    const double ws = accuracyProxy(EngineKind::Ws, 8, 9, 0.05);
    const double is = accuracyProxy(EngineKind::Inca, 8, 9, 0.05);
    EXPECT_LT(ws, is);
    // Calibration sanity: roughly Table VI's shape at sigma 0.05.
    EXPECT_NEAR(is, 0.914, 0.01);
    EXPECT_NEAR(ws, 0.28, 0.01);
}

TEST(Objectives, OrientNegatesMaximized)
{
    Evaluation e;
    e.energyJ = 2.0;
    e.utilization = 0.5;
    orientObjectives(
        e, {Objective::Energy, Objective::Utilization});
    EXPECT_EQ(e.objectives,
              (std::vector<double>{2.0, -0.5}));
}

// ---------------------------------------------------------------
// Strategies

std::vector<std::uint64_t>
drain(Strategy &s, std::size_t batch)
{
    std::vector<std::uint64_t> all;
    while (true) {
        const auto wave = s.nextBatch(batch);
        if (wave.empty())
            break;
        all.insert(all.end(), wave.begin(), wave.end());
        // Grid/Random ignore feedback; keep observe() exercised.
        std::vector<Evaluation> evals;
        for (const std::uint64_t idx : wave)
            evals.push_back(point(idx, {1, 1}));
        s.observe(evals);
    }
    return all;
}

TEST(Strategy, GridCoversInOrder)
{
    const SearchSpace space = tinySpace();
    const auto s =
        makeStrategy(StrategyKind::Grid, space, 1, {});
    const auto all = drain(*s, 4);
    ASSERT_EQ(all.size(), space.size());
    for (std::uint64_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i], i);
}

TEST(Strategy, RandomIsAPermutation)
{
    const SearchSpace space = tinySpace();
    const auto s =
        makeStrategy(StrategyKind::Random, space, 3, {});
    const auto all = drain(*s, 4);
    EXPECT_EQ(all.size(), space.size());
    EXPECT_EQ(std::set<std::uint64_t>(all.begin(), all.end()).size(),
              space.size());
    // Seeded: same seed, same order; different seed, likely not.
    const auto s2 =
        makeStrategy(StrategyKind::Random, space, 3, {});
    EXPECT_EQ(drain(*s2, 4), all);
}

TEST(Strategy, AnnealIsDeterministic)
{
    SearchSpace space;
    space.axis("plane", {8, 16, 32, 64});
    space.axis("adc_bits", {3, 4, 6, 8});
    const std::vector<Objective> objs = {Objective::Energy};
    std::vector<std::uint64_t> streams[2];
    for (auto &stream : streams) {
        const auto s =
            makeStrategy(StrategyKind::Anneal, space, 11, objs);
        for (int round = 0; round < 10; ++round) {
            const auto wave = s->nextBatch(8);
            ASSERT_FALSE(wave.empty());
            stream.insert(stream.end(), wave.begin(), wave.end());
            std::vector<Evaluation> evals;
            for (const std::uint64_t idx : wave)
                // Synthetic score: prefer small indices.
                evals.push_back(point(idx, {double(idx) + 1.0}));
            s->observe(evals);
        }
    }
    EXPECT_EQ(streams[0], streams[1]);
    for (const std::uint64_t idx : streams[0])
        EXPECT_LT(idx, space.size());
}

// ---------------------------------------------------------------
// Shared run helpers

/**
 * explore --strategy random --seed 7 --budget 48: resnet18 on the
 * default inca space, the CLI's defaults otherwise.
 */
ExploreOptions
randomSeed7Options()
{
    ExploreOptions opt;
    opt.strategy = StrategyKind::Random;
    opt.seed = 7;
    opt.budget = 48;
    return opt;
}

/** The frontier CSV of @p explorer's @p result. */
std::string
csvOf(const Explorer &explorer, const ExploreResult &result)
{
    return frontierCsv(explorer.space(), result.frontier,
                       explorer.options().objectives);
}

/** Every export and count explore prints or writes for one run. */
std::string
exploreOutputs(const SearchSpace &space, const ExploreOptions &opt)
{
    Explorer explorer(space, opt);
    const ExploreResult result = explorer.run();
    return std::to_string(result.evaluations.size()) + " " +
           std::to_string(result.scored) + " " +
           std::to_string(result.filtered) + " " +
           std::to_string(result.reused) + "\n" +
           csvOf(explorer, result) +
           testutil::withoutProvenance(frontierJson(explorer, result));
}

/** The lines of the file at @p path. */
std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

// ---------------------------------------------------------------
// Journal

TEST(Journal, EvalLineRoundTrips)
{
    Evaluation e;
    e.candidate.index = 17;
    e.feasible = false;
    e.scored = true;
    e.rejectedBy = "max_area_mm2 (612.4 > 450)";
    e.areaM2 = 6.124e-4;
    e.idlePowerW = 1.0 / 3.0;
    e.utilization = 0.7;
    e.accuracy = 0.91;
    e.energyJ = 0.0841234567890123456;
    e.latencyS = 3.8e-2;
    e.configKeyHash = 0xdeadbeefcafef00dULL;
    e.timedLatencyS = 2.9e-2;
    e.bottleneckUnit = "array";
    e.criticalShare = 0.99726432101234567;
    e.objectives = {0.0841234567890123456, 3.8e-2};

    const std::string dir = ::testing::TempDir();
    const std::string path = dir + "/dse_roundtrip.jsonl";
    JournalHeader header;
    header.signature = "sig";
    header.spaceSize = 42;
    {
        JournalWriter w;
        w.open(path, header, /*append=*/false);
        w.append(e);
    }
    JournalContents contents;
    ASSERT_TRUE(readJournal(path, header, 2, contents));
    EXPECT_EQ(contents.header.signature, "sig");
    EXPECT_EQ(contents.header.spaceSize, 42u);
    EXPECT_FALSE(contents.truncatedTail);
    ASSERT_EQ(contents.evals.count(17), 1u);
    const Evaluation &r = contents.evals.at(17);
    EXPECT_EQ(r.feasible, e.feasible);
    EXPECT_EQ(r.scored, e.scored);
    EXPECT_EQ(r.rejectedBy, e.rejectedBy);
    // Bit-exact doubles (the %.17g invariant resume depends on).
    EXPECT_EQ(r.areaM2, e.areaM2);
    EXPECT_EQ(r.idlePowerW, e.idlePowerW);
    EXPECT_EQ(r.energyJ, e.energyJ);
    EXPECT_EQ(r.latencyS, e.latencyS);
    EXPECT_EQ(r.configKeyHash, e.configKeyHash);
    EXPECT_EQ(r.timedLatencyS, e.timedLatencyS);
    EXPECT_EQ(r.bottleneckUnit, e.bottleneckUnit);
    EXPECT_EQ(r.criticalShare, e.criticalShare);
    EXPECT_EQ(r.objectives, e.objectives);
    std::remove(path.c_str());
}

TEST(Journal, LinesAreValidJson)
{
    JournalHeader header;
    header.signature = "with \"quotes\" and \\slashes";
    header.spaceSize = 7;
    EXPECT_TRUE(testutil::JsonLint(header.toJsonLine()).valid());

    Evaluation e;
    e.candidate.index = 3;
    e.rejectedBy = "min_accuracy (0.1 < 0.9)";
    e.objectives = {1.5, 2.5, 3.5};
    EXPECT_TRUE(testutil::JsonLint(evalToJsonLine(e)).valid());

    // Every line a real run writes: explore's seeded random search.
    ExploreOptions opt = randomSeed7Options();
    opt.journalPath = ::testing::TempDir() + "/dse_lint.jsonl";
    Explorer explorer(defaultSpace(EngineKind::Inca), opt);
    explorer.run();
    const std::vector<std::string> lines = readLines(opt.journalPath);
    EXPECT_EQ(lines.size(), 49u); // header + 48 evaluations
    for (const std::string &line : lines)
        EXPECT_TRUE(testutil::JsonLint(line).valid()) << line;
    std::remove(opt.journalPath.c_str());
}

TEST(Journal, TornTailTolerated)
{
    const std::string path =
        ::testing::TempDir() + "/dse_torn.jsonl";
    JournalHeader header;
    header.signature = "sig";
    header.spaceSize = 2;
    {
        JournalWriter w;
        w.open(path, header, false);
        w.append(point(0, {1.0}));
    }
    {
        std::ofstream out(path, std::ios::app);
        out << "{\"type\":\"eval\",\"index\":1,\"feasib";
    }
    JournalContents contents;
    ASSERT_TRUE(readJournal(path, header, 1, contents));
    EXPECT_TRUE(contents.truncatedTail);
    EXPECT_EQ(contents.completeBytes,
              header.toJsonLine().size() + 1 +
                  evalToJsonLine(point(0, {1.0})).size() + 1);
    EXPECT_EQ(contents.evals.size(), 1u);
    EXPECT_EQ(contents.evals.count(0), 1u);
    std::remove(path.c_str());
}

TEST(Journal, MissingFileReturnsFalse)
{
    JournalContents contents;
    EXPECT_FALSE(readJournal(::testing::TempDir() +
                                 "/does_not_exist.jsonl",
                             JournalHeader{}, 2, contents));
}

// ---------------------------------------------------------------
// Explorer end-to-end

SearchSpace
explorerSpace()
{
    SearchSpace space;
    space.axis("plane", {8, 16});
    space.axis("adc_bits", {4, 6});
    return space;
}

ExploreOptions
explorerOptions()
{
    ExploreOptions opt;
    opt.network = "lenet5";
    opt.strategy = StrategyKind::Grid;
    return opt;
}

TEST(Explorer, FrontierIdenticalAcrossThreadCounts)
{
    const SearchSpace wide = defaultSpace(EngineKind::Inca);
    std::string small, seeded;
    for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        ThreadPool::setGlobalThreads(threads);
        const std::string a =
            exploreOutputs(explorerSpace(), explorerOptions());
        const std::string b =
            exploreOutputs(wide, randomSeed7Options());
        if (small.empty()) {
            small = a;
            seeded = b;
        }
        EXPECT_EQ(a, small);
        EXPECT_EQ(b, seeded);
    }
    ThreadPool::setGlobalThreads(1);
}

TEST(Explorer, OutputsMatchThePinnedDigests)
{
    // Every other explore case compares two runs of one build; these
    // digests pin the bytes across commits, so a scoring change that
    // moves one digit fails here. bench_e2e's explore spec, then with
    // a hard lossless_adc bound (the 3-bit candidates stop before any
    // engine run or cost slot), then with the bound soft; each at 1, 3
    // and 4 lanes with the memo on and off.
    struct Pinned
    {
        const char *constraint;
        bool soft;
        std::uint64_t csv, json, journal;
    };
    const Pinned cases[] = {
        {"", false, 0x6daa26f84025e8ecULL, 0x80ce83b25e5e80cfULL,
         0x79cefd4fa74516acULL},
        {"lossless_adc=1", false, 0x6a74b21b97a653b8ULL,
         0x5c1d88d3c5a8fba2ULL, 0xcdbfbc34e6938de1ULL},
        {"lossless_adc=1", true, 0x6a74b21b97a653b8ULL,
         0xd235763974abf996ULL, 0x8950693125acf31bULL},
    };
    const std::string journal =
        ::testing::TempDir() + "/dse_pinned.jsonl";
    for (const Pinned &c : cases) {
        ExploreOptions opt = testutil::benchExploreOptions(16);
        if (*c.constraint != '\0')
            opt.constraints.set(c.constraint);
        opt.softConstraints = c.soft;
        opt.journalPath = journal;
        for (const int threads : {1, 3, 4}) {
            for (const bool memo : {true, false}) {
                SCOPED_TRACE(std::string(c.constraint) +
                             (c.soft ? " soft" : "") + " threads " +
                             std::to_string(threads) +
                             (memo ? " memo" : " no memo"));
                ThreadPool::setGlobalThreads(threads);
                setCacheEnabled(memo);
                Explorer explorer(defaultSpace(EngineKind::Inca), opt);
                const ExploreResult result = explorer.run();
                EXPECT_EQ(testutil::fnv1a(csvOf(explorer, result)),
                          c.csv);
                EXPECT_EQ(testutil::fnv1a(testutil::withoutProvenance(
                              frontierJson(explorer, result))),
                          c.json);
                EXPECT_EQ(testutil::fnv1a(testutil::slurp(journal)),
                          c.journal);
            }
        }
    }
    std::remove(journal.c_str());
    ThreadPool::setGlobalThreads(1);
    setCacheEnabled(cacheEnabledFromEnv(std::getenv("INCA_CACHE")));
}

/** Every run exportFrontierRuns wrote under @p prefix, in frontier
 *  order: CSV bytes, then JSON without provenance. Removes them. */
std::pair<std::string, std::string>
takeExports(const ExploreResult &result, const std::string &prefix)
{
    std::string csv, json;
    for (const Evaluation &e : result.frontier) {
        const std::string base =
            prefix + "-" + std::to_string(e.candidate.index);
        csv += testutil::slurp(base + ".csv");
        json += testutil::withoutProvenance(
            testutil::slurp(base + ".json"));
        std::remove((base + ".csv").c_str());
        std::remove((base + ".json").c_str());
    }
    return {csv, json};
}

TEST(Explorer, ExportedRunsMatchThePinnedDigests)
{
    // explore --strategy random --seed 7 --budget 48 --journal J
    // --export-runs P: the per-layer rows of every frontier member.
    // A run resumed from the whole journal replays the frontier
    // without scoring anything, then exports the same files.
    const std::string dir = ::testing::TempDir();
    const std::string journal = dir + "/dse_export.jsonl";
    ExploreOptions opt = randomSeed7Options();
    opt.journalPath = journal;
    Explorer uninterrupted(defaultSpace(EngineKind::Inca), opt);
    const ExploreResult want = uninterrupted.run();
    ASSERT_FALSE(want.frontier.empty());
    exportFrontierRuns(uninterrupted, want, dir + "/dse_export_a");
    const auto [csv, json] = takeExports(want, dir + "/dse_export_a");
    EXPECT_EQ(testutil::fnv1a(csv), 0xb69ba5409bad3e35ULL);
    EXPECT_EQ(testutil::fnv1a(json), 0xeb6a29f2d252fbfbULL);

    opt.resume = true;
    Explorer resumed(defaultSpace(EngineKind::Inca), opt);
    const ExploreResult got = resumed.run();
    EXPECT_EQ(got.reused, got.evaluations.size());
    exportFrontierRuns(resumed, got, dir + "/dse_export_b");
    const auto [csvResumed, jsonResumed] =
        takeExports(got, dir + "/dse_export_b");
    EXPECT_EQ(csvResumed, csv);
    EXPECT_EQ(jsonResumed, json);
    std::remove(journal.c_str());
}

TEST(Explorer, HardConstraintSkipsScoring)
{
    ExploreOptions opt = explorerOptions();
    opt.constraints.set("max_area_mm2=0.000001");
    Explorer explorer(explorerSpace(), opt);
    const ExploreResult result = explorer.run();
    EXPECT_EQ(result.scored, 0u);
    EXPECT_EQ(result.filtered, result.evaluations.size());
    EXPECT_TRUE(result.frontier.empty());
    for (const auto &e : result.evaluations) {
        EXPECT_FALSE(e.feasible);
        EXPECT_FALSE(e.scored);
        EXPECT_NE(e.rejectedBy.find("max_area_mm2"),
                  std::string::npos);
    }
}

TEST(Explorer, SoftConstraintStillScores)
{
    ExploreOptions opt = explorerOptions();
    opt.constraints.set("max_area_mm2=0.000001");
    opt.softConstraints = true;
    Explorer explorer(explorerSpace(), opt);
    const ExploreResult result = explorer.run();
    EXPECT_EQ(result.scored, result.evaluations.size());
    // Infeasible points never join the frontier, soft or not.
    EXPECT_TRUE(result.frontier.empty());

    // design_space's ADC sweep: the clipping 3-bit row still scores,
    // and the warning names it and the bound.
    Explorer adc(testutil::designSpaceAdcSweep(),
                 testutil::designSpaceOptions());
    ::testing::internal::CaptureStderr();
    const ExploreResult adcResult = adc.run();
    const std::string warnings =
        ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(adcResult.scored, 4u);
    EXPECT_NE(warnings.find("adc_bits=3 rejected by lossless_adc"),
              std::string::npos)
        << warnings;
    EXPECT_EQ(warnings.find("adc_bits=4"), std::string::npos);
}

TEST(Explorer, BudgetBoundsEvaluations)
{
    ExploreOptions opt = explorerOptions();
    opt.budget = 3;
    Explorer explorer(explorerSpace(), opt);
    EXPECT_EQ(explorer.run().evaluations.size(), 3u);
}

TEST(Explorer, ResumeMatchesUninterrupted)
{
    const std::string dir = ::testing::TempDir();
    const std::string full = dir + "/dse_full.jsonl";
    const std::string torn = dir + "/dse_torn_run.jsonl";

    ExploreOptions opt = explorerOptions();
    opt.journalPath = full;
    Explorer uninterrupted(explorerSpace(), opt);
    const ExploreResult want = uninterrupted.run();
    const std::string wantCsv = frontierCsv(
        uninterrupted.space(), want.frontier, opt.objectives);

    // Simulate a kill: keep the header + 2 evals + a torn line.
    {
        std::ifstream in(full);
        std::ofstream out(torn);
        std::string line;
        for (int i = 0; i < 3 && std::getline(in, line); ++i)
            out << line << "\n";
        out << "{\"type\":\"eval\",\"index\":2,\"feas";
    }

    ExploreOptions resumeOpt = explorerOptions();
    resumeOpt.journalPath = torn;
    resumeOpt.resume = true;
    Explorer resumed(explorerSpace(), resumeOpt);
    const ExploreResult got = resumed.run();
    EXPECT_EQ(got.reused, 2u);
    EXPECT_EQ(got.scored, want.evaluations.size() - 2);
    EXPECT_EQ(frontierCsv(resumed.space(), got.frontier,
                          resumeOpt.objectives),
              wantCsv);

    // The torn journal is now complete: resuming again re-runs
    // nothing.
    Explorer replayed(explorerSpace(), resumeOpt);
    const ExploreResult replay = replayed.run();
    EXPECT_EQ(replay.scored, 0u);
    EXPECT_EQ(replay.reused, replay.evaluations.size());
    EXPECT_EQ(frontierCsv(replayed.space(), replay.frontier,
                          resumeOpt.objectives),
              wantCsv);

    // explore's seeded run, killed after the header and 20
    // evaluations in the middle of the 21st line.
    ExploreOptions seededOpt = randomSeed7Options();
    seededOpt.journalPath = full;
    Explorer seeded(defaultSpace(EngineKind::Inca), seededOpt);
    const std::string seededCsv = csvOf(seeded, seeded.run());
    {
        const std::vector<std::string> lines = readLines(full);
        ASSERT_GT(lines.size(), 21u);
        std::ofstream out(torn);
        for (std::size_t i = 0; i < 21; ++i)
            out << lines[i] << "\n";
        out << "{\"type\":\"eval\",\"index\":3,\"feasib";
    }
    ExploreOptions seededResume = randomSeed7Options();
    seededResume.journalPath = torn;
    seededResume.resume = true;
    Explorer resumedSeeded(defaultSpace(EngineKind::Inca),
                           seededResume);
    const ExploreResult seededGot = resumedSeeded.run();
    EXPECT_EQ(seededGot.reused, 20u);
    EXPECT_EQ(csvOf(resumedSeeded, seededGot), seededCsv);

    std::remove(full.c_str());
    std::remove(torn.c_str());
}

/** explore --strategy random --seed 7 --budget 8 --journal J, with
 *  --resume when @p resume. */
ExploreOptions
seed7Budget8(const std::string &journal, bool resume)
{
    ExploreOptions opt = randomSeed7Options();
    opt.budget = 8;
    opt.journalPath = journal;
    opt.resume = resume;
    return opt;
}

/** @p line with the value of "@p key" replaced by @p value. */
std::string
withValue(std::string line, const std::string &key,
          const std::string &value)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = line.find(needle) + needle.size();
    const std::size_t end = line[at] == '['
                                ? line.find(']', at) + 1
                                : line.find_first_of(",}", at);
    return line.replace(at, end - at, value);
}

TEST(Explorer, ResumeAfterATornTailScoresOnlyTheRest)
{
    // A kill mid-write leaves a final line that does not parse: resume
    // drops it and scores only that candidate again.
    const std::string journal =
        ::testing::TempDir() + "/dse_torn_tail.jsonl";
    Explorer full(defaultSpace(EngineKind::Inca),
                  seed7Budget8(journal, false));
    const std::string want = csvOf(full, full.run());
    const std::vector<std::string> lines = readLines(journal);
    ASSERT_EQ(lines.size(), 9u);
    {
        std::ofstream out(journal);
        for (std::size_t i = 0; i + 1 < lines.size(); ++i)
            out << lines[i] << "\n";
        out << lines.back().substr(0, lines.back().size() / 2);
    }
    Explorer resumed(defaultSpace(EngineKind::Inca),
                     seed7Budget8(journal, true));
    const ExploreResult got = resumed.run();
    EXPECT_EQ(got.reused, 7u);
    EXPECT_EQ(got.scored, 1u);
    EXPECT_EQ(csvOf(resumed, got), want);

    // The torn fragment was cut, not glued to the rescored line: the
    // journal is whole again and a second resume scores nothing.
    EXPECT_EQ(readLines(journal), lines);
    Explorer again(defaultSpace(EngineKind::Inca),
                   seed7Budget8(journal, true));
    const ExploreResult replay = again.run();
    EXPECT_EQ(replay.reused, 8u);
    EXPECT_EQ(csvOf(again, replay), want);

    // A kill after the last brace but before the newline leaves a
    // final line that parses: resume replays it, and the rescored
    // candidate's line starts on a line of its own.
    {
        std::ofstream out(journal);
        for (std::size_t i = 0; i + 2 < lines.size(); ++i)
            out << lines[i] << "\n";
        out << lines[lines.size() - 2];
    }
    Explorer unterminated(defaultSpace(EngineKind::Inca),
                          seed7Budget8(journal, true));
    const ExploreResult rest = unterminated.run();
    EXPECT_EQ(rest.reused, 7u);
    EXPECT_EQ(rest.scored, 1u);
    EXPECT_EQ(csvOf(unterminated, rest), want);
    EXPECT_EQ(readLines(journal), lines);
    Explorer whole(defaultSpace(EngineKind::Inca),
                   seed7Budget8(journal, true));
    EXPECT_EQ(whole.run().reused, 8u);
    std::remove(journal.c_str());
}

TEST(Explorer, ResumeReplaysHardRejections)
{
    // bench_e2e's explore spec with a hard lossless_adc bound: the
    // 3-bit candidates stop before scoring, and their lines carry no
    // objectives. A resume replays every line, rejections included.
    const std::string journal =
        ::testing::TempDir() + "/dse_hard_rejections.jsonl";
    ExploreOptions opt = testutil::benchExploreOptions(16);
    opt.constraints.set("lossless_adc=1");
    opt.journalPath = journal;
    Explorer full(defaultSpace(EngineKind::Inca), opt);
    const ExploreResult want = full.run();
    ASSERT_GT(want.filtered, 0u);
    ASSERT_GT(want.scored, 0u);

    opt.resume = true;
    Explorer resumed(defaultSpace(EngineKind::Inca), opt);
    const ExploreResult got = resumed.run();
    EXPECT_EQ(got.reused, want.evaluations.size());
    EXPECT_EQ(got.scored, 0u);
    EXPECT_EQ(got.filtered, want.filtered);
    EXPECT_EQ(csvOf(resumed, got), csvOf(full, want));
    std::remove(journal.c_str());
}

TEST(ExplorerDeath, ResumeRejectsLinesForeignToTheRun)
{
    // Each mutated line below parses, but the writer never writes it
    // for this run (96 candidates, finite numbers, 3 objectives on a
    // scored line and none on one the hard lossless_adc bound stopped):
    // resume names the journal, the line and the field instead of
    // aborting, dropping the line or replaying it.
    const std::string journal =
        ::testing::TempDir() + "/dse_foreign_line.jsonl";
    ExploreOptions opt = seed7Budget8(journal, false);
    opt.constraints.set("lossless_adc=1");
    {
        Explorer explorer(defaultSpace(EngineKind::Inca), opt);
        explorer.run();
    }
    const std::vector<std::string> lines = readLines(journal);
    ASSERT_EQ(lines.size(), 9u);
    ASSERT_NE(lines[1].find("\"scored\":true"), std::string::npos);
    std::size_t unscored = 1;
    while (unscored < lines.size() &&
           lines[unscored].find("\"scored\":false") == std::string::npos)
        ++unscored;
    ASSERT_LT(unscored, lines.size());
    struct Mutation
    {
        std::size_t line;
        const char *key;
        const char *value;
        const char *message;
    };
    const Mutation mutations[] = {
        {1, "objectives", "[1,2,3,4]",
         "objectives holds 4 values, but a scored line of this run "
         "holds 3"},
        {1, "objectives", "[1,2]", "objectives holds 2 values"},
        {1, "objectives", "[]", "objectives holds 0 values"},
        {unscored, "objectives", "[1,2,3]",
         "objectives holds 3 values, but an unscored line of this run "
         "holds 0"},
        {1, "index", "99999", "index 99999 is not a candidate"},
        {1, "index", "-53", "index -53 is not a candidate"},
        {1, "index", "18446744073709551616",
         "index 18446744073709551616 is not a candidate"},
        {1, "energy_j", "1e999", "energy_j is not finite"},
    };
    opt.resume = true;
    for (const Mutation &m : mutations) {
        SCOPED_TRACE(std::string(m.key) + "=" + m.value);
        {
            std::ofstream out(journal);
            for (std::size_t i = 0; i < lines.size(); ++i)
                out << (i == m.line
                            ? withValue(lines[i], m.key, m.value)
                            : lines[i])
                    << "\n";
        }
        Explorer resumed(defaultSpace(EngineKind::Inca), opt);
        EXPECT_DEATH(resumed.run(),
                     "dse_foreign_line\\.jsonl' line " +
                         std::to_string(m.line + 1) + ": " + m.message);
    }
    std::remove(journal.c_str());
}

TEST(ExplorerDeath, ForeignJournalIsFatal)
{
    const std::string path =
        ::testing::TempDir() + "/dse_foreign.jsonl";
    {
        ExploreOptions opt = explorerOptions();
        opt.journalPath = path;
        Explorer explorer(explorerSpace(), opt);
        explorer.run();
    }
    ExploreOptions other = explorerOptions();
    other.journalPath = path;
    other.resume = true;
    other.seed = 999; // different stream -> different signature
    Explorer explorer(explorerSpace(), other);
    EXPECT_DEATH(explorer.run(), "different run");
    std::remove(path.c_str());
}

TEST(ExplorerDeath, AnnealWithoutBudgetIsFatal)
{
    ExploreOptions opt = explorerOptions();
    opt.strategy = StrategyKind::Anneal;
    Explorer explorer(explorerSpace(), opt);
    EXPECT_DEATH(explorer.run(), "budget");
}

TEST(Explorer, AnnealFindsGridOptimumOnTinySpace)
{
    // On an exhaustively searchable space, annealing's frontier must
    // be a subset of the grid frontier (it can miss points, never
    // invent dominated ones).
    ExploreOptions gridOpt = explorerOptions();
    gridOpt.objectives = {Objective::Energy};
    Explorer grid(explorerSpace(), gridOpt);
    const auto gridBest = grid.run().frontier;
    ASSERT_EQ(gridBest.size(), 1u);

    ExploreOptions annealOpt = gridOpt;
    annealOpt.strategy = StrategyKind::Anneal;
    annealOpt.budget = 64; // plenty for a 4-point space
    Explorer anneal(explorerSpace(), annealOpt);
    const auto annealBest = anneal.run().frontier;
    ASSERT_EQ(annealBest.size(), 1u);
    EXPECT_EQ(annealBest[0].candidate.index,
              gridBest[0].candidate.index);
}

TEST(Explorer, FrontierJsonIsValid)
{
    Explorer explorer(explorerSpace(), explorerOptions());
    const ExploreResult result = explorer.run();
    const std::string json = frontierJson(explorer, result);
    EXPECT_TRUE(testutil::JsonLint(json).valid())
        << "error at " << testutil::JsonLint(json).errorPos();
    EXPECT_NE(json.find("\"dse.frontier\""), std::string::npos);
    EXPECT_NE(json.find("\"provenance\""), std::string::npos);
}

} // namespace
} // namespace dse
} // namespace inca
