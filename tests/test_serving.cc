/**
 * @file
 * Serving-simulator tests: arrival-process statistics, the event
 * queue's pop order under exact ties, virtual-time scheduling
 * invariants (Little's law, FIFO within priority),
 * bit-identity of the full report across thread counts and cache
 * settings, p99 scaling with replicas, exact percentiles (simulator
 * and metrics histogram), strict CLI parsers, and the DSE bridge
 * (journal round-trip, max_p99_ms end-to-end).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "common/metrics.hh"
#include "common/random.hh"
#include "dse/explorer.hh"
#include "dse/journal.hh"
#include "examples/cli.hh"
#include "json_lint.hh"
#include "serving/event_queue.hh"
#include "serving/export.hh"
#include "serving/simulator.hh"
#include "serving_fixtures.hh"

namespace inca {
namespace serving {
namespace {

// ---------------------------------------------------------------
// Arrival processes

TEST(Arrivals, PoissonInterarrivalMoments)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Poisson;
    spec.ratePerS = 1000.0;
    spec.seed = 7;
    const std::vector<Seconds> t = generateArrivals(spec, 20.0);
    ASSERT_GT(t.size(), 1000u);
    // Realized rate within 5% of the offered one.
    EXPECT_NEAR(double(t.size()) / 20.0, 1000.0, 50.0);
    // Exponential interarrivals: mean 1/lambda, variance 1/lambda^2.
    std::vector<double> gaps;
    for (std::size_t i = 1; i < t.size(); ++i)
        gaps.push_back(t[i] - t[i - 1]);
    double mean = 0.0;
    for (const double g : gaps)
        mean += g;
    mean /= double(gaps.size());
    double var = 0.0;
    for (const double g : gaps)
        var += (g - mean) * (g - mean);
    var /= double(gaps.size());
    EXPECT_NEAR(mean, 1e-3, 1e-4);
    EXPECT_NEAR(var, 1e-6, 2e-7);
}

TEST(Arrivals, TracesAreSortedAndSeeded)
{
    for (const ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Bursty,
          ArrivalKind::Diurnal}) {
        ArrivalSpec spec;
        spec.kind = kind;
        spec.ratePerS = 500.0;
        spec.seed = 3;
        const auto a = generateArrivals(spec, 4.0);
        const auto b = generateArrivals(spec, 4.0);
        EXPECT_EQ(a, b) << arrivalKindName(kind);
        EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
        ASSERT_FALSE(a.empty());
        EXPECT_GE(a.front(), 0.0);
        EXPECT_LT(a.back(), 4.0);
        spec.seed = 4;
        EXPECT_NE(generateArrivals(spec, 4.0), a)
            << arrivalKindName(kind);
    }
}

TEST(Arrivals, BurstyAndDiurnalKeepTheTimeAverageRate)
{
    for (const ArrivalKind kind :
         {ArrivalKind::Bursty, ArrivalKind::Diurnal}) {
        ArrivalSpec spec;
        spec.kind = kind;
        spec.ratePerS = 800.0;
        spec.seed = 11;
        const auto t = generateArrivals(spec, 30.0);
        EXPECT_NEAR(double(t.size()) / 30.0, 800.0, 80.0)
            << arrivalKindName(kind);
    }
}

TEST(Arrivals, BurstyIsBurstierThanPoisson)
{
    // Dispersion of per-100ms counts: ~1 for Poisson, > 1 when the
    // on/off modulation concentrates arrivals.
    const auto dispersion = [](ArrivalKind kind) {
        ArrivalSpec spec;
        spec.kind = kind;
        spec.ratePerS = 400.0;
        spec.seed = 5;
        const auto t = generateArrivals(spec, 50.0);
        std::vector<double> counts(500, 0.0);
        for (const Seconds s : t)
            counts[std::min<std::size_t>(std::size_t(s / 0.1),
                                         499)] += 1.0;
        double mean = 0.0;
        for (const double c : counts)
            mean += c;
        mean /= double(counts.size());
        double var = 0.0;
        for (const double c : counts)
            var += (c - mean) * (c - mean);
        var /= double(counts.size());
        return var / mean;
    };
    EXPECT_GT(dispersion(ArrivalKind::Bursty),
              2.0 * dispersion(ArrivalKind::Poisson));
}

// ---------------------------------------------------------------
// Event source

TEST(EventQueue, PopsInTheHeapOrderUnderTies)
{
    // Everything sits on a coarse grid (k x 0.25 ms), so arrivals,
    // ticks, deadlines and run-time events collide on exact instants.
    // The reference is one heap filled the way simulate() used to
    // fill it: every request event up front, then the same run-time
    // pushes as the queue under test.
    constexpr Seconds kStep = 0.25e-3;
    const int runtimeKinds[] = {kEvServerReady, kEvCompletion, kEvFail,
                                kEvRepair,      kEvUp,         kEvRetry};
    using Popped = std::tuple<Seconds, int, std::uint64_t>;
    std::uint64_t crossKindTies = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        for (const int timeoutSteps : {0, 2}) {
            for (const int deadlineSteps : {0, timeoutSteps, 4}) {
                SplitMix64 rng(seed);
                std::vector<Seconds> arrivals(48);
                for (Seconds &a : arrivals)
                    a = double(rng.below(24)) * kStep;
                std::sort(arrivals.begin(), arrivals.end());
                const Seconds timeoutS = timeoutSteps * kStep;
                const Seconds deadlineS = deadlineSteps * kStep;

                EventQueue q(arrivals, timeoutS, deadlineS);
                std::priority_queue<Ev, std::vector<Ev>, EvLater> ref;
                std::uint64_t seq = 0;
                for (std::size_t i = 0; i < arrivals.size(); ++i) {
                    ref.push(Ev{arrivals[i], kEvArrival, seq++, i});
                    ref.push(Ev{arrivals[i] + timeoutS, kEvTimeout,
                                seq++, i});
                }
                if (deadlineS > 0.0) {
                    for (std::size_t i = 0; i < arrivals.size(); ++i)
                        ref.push(Ev{arrivals[i] + deadlineS,
                                    kEvDeadline, seq++, i});
                }

                std::vector<Popped> got, want;
                std::uint64_t payload = 1000;
                int pushes = 160;
                while (!ref.empty()) {
                    ASSERT_FALSE(q.empty());
                    const Ev w = ref.top();
                    ref.pop();
                    const Ev g = q.pop();
                    if (!want.empty() &&
                        std::get<0>(want.back()) == w.t &&
                        std::get<1>(want.back()) != w.kind)
                        ++crossKindTies;
                    want.emplace_back(w.t, w.kind, w.payload);
                    got.emplace_back(g.t, g.kind, g.payload);
                    // Schedule run-time events at the popped instant,
                    // at a later grid point, or at a later grid point
                    // plus the tick or deadline offset (where a
                    // cursor event may sit).
                    for (std::uint64_t n = rng.below(3);
                         n > 0 && pushes > 0; --n, --pushes) {
                        const int kind = runtimeKinds[rng.below(6)];
                        const Seconds grid =
                            double(std::llround(w.t / kStep) + 1 +
                                   std::int64_t(rng.below(4))) *
                            kStep;
                        const Seconds at[] = {w.t, grid,
                                              grid + timeoutS,
                                              grid + deadlineS};
                        const Seconds t = at[rng.below(4)];
                        q.push(t, kind, payload);
                        ref.push(Ev{t, kind, seq++, payload});
                        ++payload;
                    }
                }
                EXPECT_TRUE(q.empty());
                EXPECT_EQ(got, want)
                    << "seed " << seed << ", timeout " << timeoutSteps
                    << " steps, deadline " << deadlineSteps << " steps";
            }
        }
    }
    // The grid must actually produce ties between different kinds.
    EXPECT_GT(crossKindTies, 1000u);
}

TEST(EventQueueDeathTest, RequestKindsComeOnlyFromTheCursors)
{
    const std::vector<Seconds> arrivals = {0.0, 1e-3};
    for (const int kind : {kEvArrival, kEvTimeout, kEvDeadline}) {
        EventQueue q(arrivals, 1e-3, 0.0);
        EXPECT_DEATH(q.push(2e-3, kind, 0), "comes from a cursor");
    }
    const std::vector<Seconds> unsorted = {1e-3, 0.0};
    EXPECT_DEATH(EventQueue(unsorted, 1e-3, 0.0), "not sorted");
}

// ---------------------------------------------------------------
// Percentiles

TEST(Percentile, ExactNearestRank)
{
    std::vector<double> s;
    for (int i = 1; i <= 100; ++i)
        s.push_back(double(i));
    EXPECT_DOUBLE_EQ(exactPercentile(s, 50.0), 50.0);
    EXPECT_DOUBLE_EQ(exactPercentile(s, 95.0), 95.0);
    EXPECT_DOUBLE_EQ(exactPercentile(s, 99.0), 99.0);
    EXPECT_DOUBLE_EQ(exactPercentile(s, 100.0), 100.0);
    EXPECT_DOUBLE_EQ(exactPercentile(s, 0.5), 1.0);
    EXPECT_DOUBLE_EQ(exactPercentile({42.0}, 99.0), 42.0);
    EXPECT_DOUBLE_EQ(exactPercentile({}, 99.0), 0.0);
}

TEST(Percentile, HistogramMatchesReference)
{
    auto &h = metrics::histogram("test.serving.percentile");
    h.reset();
    std::vector<double> s;
    for (int i = 0; i < 1000; ++i) {
        const double v = double((i * 37) % 1000);
        s.push_back(v);
        h.observe(v);
    }
    for (const double q : {50.0, 95.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(h.percentile(q), exactPercentile(s, q));
    EXPECT_FALSE(h.retainedSaturated());
}

TEST(Percentile, HistogramSaturationIsFlagged)
{
    auto &h = metrics::histogram("test.serving.saturation");
    h.reset();
    const std::size_t n = metrics::Histogram::kRetainCap + 10;
    for (std::size_t i = 0; i < n; ++i)
        h.observe(double(i));
    EXPECT_TRUE(h.retainedSaturated());
    EXPECT_EQ(h.retained().size(), metrics::Histogram::kRetainCap);
    h.reset();
    EXPECT_FALSE(h.retainedSaturated());
    EXPECT_TRUE(h.retained().empty());
}

// ---------------------------------------------------------------
// Simulator invariants

ServingSpec
tinySpec()
{
    ServingSpec spec;
    spec.streams = {StreamSpec{"lenet5", 1.0, 0}};
    spec.arrivals.kind = ArrivalKind::Poisson;
    spec.arrivals.ratePerS = 3000.0;
    spec.arrivals.seed = 17;
    spec.durationS = 0.2;
    spec.replicas = 2;
    spec.batch.maxBatch = 4;
    spec.batch.timeoutS = 1e-3;
    spec.sloS = 5e-3;
    return spec;
}

/**
 * The README's bursty vgg16 example, shortened to 500 ms: two 4-chip
 * tensor-sharded replicas, batches of up to 8 formed within 2 ms,
 * and a 50 ms SLO.
 */
ServingSpec
readmeSpec()
{
    ServingSpec spec;
    spec.streams = {StreamSpec{"vgg16", 1.0, 0}};
    spec.arrivals.kind = ArrivalKind::Bursty;
    spec.arrivals.ratePerS = 300.0;
    spec.durationS = 0.5;
    spec.replicas = 2;
    spec.shard.kind = ShardKind::Tensor;
    spec.shard.chips = 4;
    spec.batch.maxBatch = 8;
    spec.batch.timeoutS = 2e-3;
    spec.sloS = 50e-3;
    return spec;
}

TEST(Simulator, ServesEveryRequestExactlyOnce)
{
    const ServingReport rep = simulate(tinySpec());
    EXPECT_EQ(rep.completed, rep.offered);
    EXPECT_EQ(rep.requests.size(), rep.offered);
    std::uint64_t served = 0;
    for (const auto &s : rep.servers)
        served += s.requests;
    EXPECT_EQ(served, rep.offered);
    for (const RequestRecord &r : rep.requests) {
        EXPECT_GE(r.dispatchS, r.arrivalS);
        EXPECT_GT(r.completionS, r.dispatchS);
        EXPECT_GE(r.server, 0);
        EXPECT_GE(r.batchSize, 1);
        EXPECT_LE(r.batchSize, 4);
    }
}

TEST(Simulator, LittlesLawTiesTimelineToPerRequestWaits)
{
    // The time-weighted queue-depth integral and the per-request wait
    // accounting are independent code paths over the same events;
    // Little's law (L = lambda * W) says they must agree exactly.
    const ServingReport rep = simulate(tinySpec());
    const double lambda = double(rep.completed) / rep.makespanS;
    const double expectL = lambda * rep.meanWaitS;
    ASSERT_GT(rep.meanQueueDepth, 0.0);
    EXPECT_NEAR(rep.meanQueueDepth, expectL,
                1e-9 * std::max(1.0, expectL));
}

TEST(Simulator, FifoWithinEachStream)
{
    ServingSpec spec = tinySpec();
    spec.streams = {StreamSpec{"lenet5", 1.0, 0},
                    StreamSpec{"lenet5", 1.0, 1}};
    const ServingReport rep = simulate(spec);
    // Requests of one stream dispatch in arrival (id) order.
    std::vector<const RequestRecord *> byDispatch;
    for (const auto &r : rep.requests)
        byDispatch.push_back(&r);
    std::sort(byDispatch.begin(), byDispatch.end(),
              [](const RequestRecord *a, const RequestRecord *b) {
                  if (a->dispatchS != b->dispatchS)
                      return a->dispatchS < b->dispatchS;
                  return a->id < b->id;
              });
    std::uint64_t lastId[2] = {0, 0};
    bool seen[2] = {false, false};
    for (const RequestRecord *r : byDispatch) {
        const int s = r->stream;
        if (seen[s]) {
            EXPECT_GT(r->id, lastId[s]);
        }
        lastId[s] = r->id;
        seen[s] = true;
    }
    // Completions on one server never move backwards (FIFO pipeline).
    std::vector<Seconds> lastCompletion(rep.servers.size(), 0.0);
    std::vector<Seconds> lastDispatch(rep.servers.size(), -1.0);
    for (const RequestRecord *r : byDispatch) {
        const std::size_t srv = std::size_t(r->server);
        if (r->dispatchS >= lastDispatch[srv]) {
            EXPECT_GE(r->completionS, lastCompletion[srv]);
            lastCompletion[srv] = r->completionS;
            lastDispatch[srv] = r->dispatchS;
        }
    }
}

TEST(Simulator, PriorityStreamWaitsLess)
{
    ServingSpec spec = tinySpec();
    spec.arrivals.ratePerS = 6000.0; // force contention
    spec.streams = {StreamSpec{"lenet5", 1.0, 0},
                    StreamSpec{"lenet5", 1.0, 1}};
    const ServingReport rep = simulate(spec);
    double wait[2] = {0.0, 0.0};
    std::uint64_t n[2] = {0, 0};
    for (const auto &r : rep.requests) {
        wait[r.stream] += r.waitS();
        ++n[r.stream];
    }
    ASSERT_GT(n[0], 0u);
    ASSERT_GT(n[1], 0u);
    EXPECT_LT(wait[0] / double(n[0]), wait[1] / double(n[1]));
}

TEST(Simulator, ReportBytesIdenticalAcrossThreadsAndCache)
{
    // The simulated clock is virtual, so the thread count and the
    // cache switch can change wall time only, never a byte of any
    // export; every run below also replays the reference's seed.
    for (const ServingSpec &spec : {tinySpec(), readmeSpec()})
        testutil::expectExportsIndependentOfThreadsAndCache(spec);
}

TEST(Simulator, P99DropsAsReplicasGrow)
{
    ServingSpec overload = tinySpec();
    overload.arrivals.ratePerS = 600000.0; // overload even 8 servers
    std::vector<ServingSpec> specs = {overload};
    // `serve --network vgg16 --arrivals <mix> --rate 400/s
    // --duration 500ms` under every arrival mix.
    for (const ArrivalKind mix :
         {ArrivalKind::Poisson, ArrivalKind::Bursty,
          ArrivalKind::Diurnal}) {
        ServingSpec spec;
        spec.arrivals.kind = mix;
        spec.arrivals.ratePerS = 400.0;
        spec.durationS = 0.5;
        specs.push_back(spec);
    }
    for (ServingSpec &spec : specs) {
        double last = 0.0;
        for (const int replicas : {1, 4, 8}) {
            spec.replicas = replicas;
            const ServingReport rep = simulate(spec);
            if (replicas > 1) {
                EXPECT_LT(rep.p99S, last)
                    << "p99 must shrink from " << last << " at "
                    << replicas << " replicas ("
                    << spec.streams[0].network << ", "
                    << arrivalKindName(spec.arrivals.kind) << ")";
            }
            last = rep.p99S;
        }
    }
}

TEST(Simulator, ShardingChangesTheCostModelNotTheContract)
{
    ServingSpec spec = tinySpec();
    for (const ShardKind kind :
         {ShardKind::Replica, ShardKind::Pipeline,
          ShardKind::Tensor}) {
        spec.shard.kind = kind;
        spec.shard.chips = kind == ShardKind::Replica ? 1 : 4;
        const ServingReport rep = simulate(spec);
        EXPECT_EQ(rep.completed, rep.offered)
            << shardKindName(kind);
        EXPECT_GT(rep.p99S, 0.0) << shardKindName(kind);
        EXPECT_GT(rep.energyJ, 0.0) << shardKindName(kind);
    }
}

TEST(Simulator, StaticEnergyScalesWithChips)
{
    ServingSpec spec = tinySpec();
    spec.shard.kind = ShardKind::Tensor;
    spec.shard.chips = 1;
    const ServingReport one = simulate(spec);
    spec.shard.chips = 4;
    const ServingReport four = simulate(spec);
    // Four chips leak roughly four servers' worth per second; the
    // makespans differ, so compare idle power, not raw energy.
    EXPECT_NEAR(four.staticEnergyJ / four.makespanS,
                4.0 * one.staticEnergyJ / one.makespanS,
                1e-6 * four.staticEnergyJ / four.makespanS);
}

TEST(Simulator, ExportsAreWellFormed)
{
    const ServingReport rep = simulate(readmeSpec());
    ASSERT_EQ(rep.completed, rep.offered);
    const std::string json = reportJson(rep);
    testutil::JsonLint lint(json);
    EXPECT_TRUE(lint.valid()) << "bad JSON near byte "
                              << lint.errorPos();
    for (const std::string &member :
         {std::string("\"kind\": \"serving.report\""),
          std::string("\"arrivals\": {\"kind\": \"bursty\""),
          std::string("\"shard\": {\"kind\": \"tensor\""),
          std::string("\"config_key_hash\": \"0x"),
          "\"offered\": " + std::to_string(rep.offered) + ",",
          "\"completed\": " + std::to_string(rep.offered) + ","})
        EXPECT_NE(json.find(member), std::string::npos) << member;
    ASSERT_GE(rep.requests.size(), 1u);
    ASSERT_GE(rep.queueTimeline.size(), 1u);
    testutil::expectRectangular(requestsCsv(rep), rep.requests.size(),
                                "requestsCsv");
    testutil::expectRectangular(timelineCsv(rep),
                                rep.queueTimeline.size(),
                                "timelineCsv");
}

// ---------------------------------------------------------------
// CLI parsers

TEST(Cli, ParseDurationAcceptsUnits)
{
    EXPECT_DOUBLE_EQ(cli::parseDuration("--t", "500ms"), 0.5);
    EXPECT_DOUBLE_EQ(cli::parseDuration("--t", "2s"), 2.0);
    EXPECT_DOUBLE_EQ(cli::parseDuration("--t", "750us"), 750e-6);
    EXPECT_DOUBLE_EQ(cli::parseDuration("--t", "1e3ns"), 1e-6);
    EXPECT_DOUBLE_EQ(cli::parseDuration("--t", "0"), 0.0);
}

TEST(CliDeathTest, ParseDurationRejectsMalformedInput)
{
    EXPECT_DEATH(cli::parseDuration("--t", "5"), "unit suffix");
    EXPECT_DEATH(cli::parseDuration("--t", "5 s"), "unknown");
    EXPECT_DEATH(cli::parseDuration("--t", "-1ms"), "non-negative");
    EXPECT_DEATH(cli::parseDuration("--t", "5m"), "unknown");
    EXPECT_DEATH(cli::parseDuration("--t", "banana"),
                 "not a duration");
    EXPECT_DEATH(cli::parseDuration("--t", ""), "empty");
    // strtod reads nan and inf; an infinite duration never ends the
    // arrival trace.
    EXPECT_DEATH(cli::parseDuration("--t", "infs"), "not a finite");
    EXPECT_DEATH(cli::parseDuration("--t", "nanms"), "not a finite");
    EXPECT_DEATH(cli::parseDuration("--t", "infinityus"),
                 "not a finite");
}

TEST(Cli, ParseRateAcceptsMultipliers)
{
    EXPECT_DOUBLE_EQ(cli::parseRate("--r", "80/s"), 80.0);
    EXPECT_DOUBLE_EQ(cli::parseRate("--r", "80"), 80.0);
    EXPECT_DOUBLE_EQ(cli::parseRate("--r", "1.5k/s"), 1500.0);
    EXPECT_DOUBLE_EQ(cli::parseRate("--r", "2M/s"), 2e6);
    EXPECT_DOUBLE_EQ(cli::parseRate("--r", "1G/s"), 1e9);
}

TEST(CliDeathTest, ParseRateRejectsMalformedInput)
{
    EXPECT_DEATH(cli::parseRate("--r", "1.5k"), "needs '/s'");
    EXPECT_DEATH(cli::parseRate("--r", "80/min"), "trailing");
    EXPECT_DEATH(cli::parseRate("--r", "-5/s"), "positive");
    EXPECT_DEATH(cli::parseRate("--r", "0/s"), "positive");
    EXPECT_DEATH(cli::parseRate("--r", "fast"), "not a rate");
    // An infinite rate never ends the arrival trace, and a finite
    // mantissa can overflow its multiplier.
    EXPECT_DEATH(cli::parseRate("--r", "inf/s"), "not a finite");
    EXPECT_DEATH(cli::parseRate("--r", "nan/s"), "not a finite");
    EXPECT_DEATH(cli::parseRate("--r", "1e306G/s"), "not a finite");
}

TEST(CliDeathTest, ParseDoubleRejectsNonFiniteValues)
{
    EXPECT_DOUBLE_EQ(cli::parseDouble("--x", "-2.5e3"), -2500.0);
    EXPECT_DEATH(cli::parseDouble("--x", "nan"), "not a finite");
    EXPECT_DEATH(cli::parseDouble("--x", "-inf"), "not a finite");
    EXPECT_DEATH(cli::parseDoubleList("--x", "1e-3,inf"),
                 "not a finite");
}

TEST(Cli, ParseIntInAcceptsTheWholeRange)
{
    EXPECT_EQ(cli::parseIntIn("--n", "2147483647"), 2147483647);
    EXPECT_EQ(cli::parseIntIn("--n", "-2147483648"),
              std::numeric_limits<int>::min());
    EXPECT_EQ(cli::parseIntIn("--n", "-1"), -1);
    EXPECT_EQ(cli::parseIntIn("--n", "1", 1), 1);
}

TEST(CliDeathTest, ParseIntInRejectsValuesThatWouldWrap)
{
    // int(4294967297) is 1: "--replicas 4294967297" must not run one
    // replica.
    EXPECT_DEATH(cli::parseIntIn("--replicas", "4294967297", 1),
                 "--replicas must be in \\[1, 2147483647\\]");
    EXPECT_DEATH(cli::parseIntIn("--n", "2147483648"), "must be in");
    EXPECT_DEATH(cli::parseIntIn("--n", "-2147483649"), "must be in");
    EXPECT_DEATH(cli::parseIntIn("--replicas", "0", 1), "must be in");
    EXPECT_DEATH(cli::parseIntIn("--n", "99999999999999999999"),
                 "not an integer");
}

// ---------------------------------------------------------------
// DSE bridge

TEST(DseBridge, JournalRoundTripsServingScalars)
{
    dse::Evaluation e;
    e.candidate.index = 9;
    e.scored = true;
    e.p99LatencyS = 0.0123456789012345678;
    e.goodputRps = 1234.5678901234567;
    e.energyPerRequestJ = 4.2e-3;
    e.objectives = {1.0, -2.0};
    const std::string path = "test_serving_journal.jsonl";
    {
        dse::JournalWriter writer;
        dse::JournalHeader header;
        header.signature = "test";
        header.spaceSize = 10;
        writer.open(path, header, false);
        writer.append(e);
    }
    dse::JournalContents contents;
    ASSERT_TRUE(dse::readJournal(path, contents));
    std::remove(path.c_str());
    ASSERT_EQ(contents.evals.count(9), 1u);
    const dse::Evaluation &back = contents.evals[9];
    EXPECT_EQ(back.p99LatencyS, e.p99LatencyS);
    EXPECT_EQ(back.goodputRps, e.goodputRps);
    EXPECT_EQ(back.energyPerRequestJ, e.energyPerRequestJ);
}

TEST(DseBridge, JournalDefaultsServingScalarsWhenAbsent)
{
    // A pre-serving journal line must parse with zeroed serving
    // scalars, not fail.
    const std::string path = "test_serving_journal_old.jsonl";
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs(
            "{\"type\":\"header\",\"version\":1,\"space_size\":2,"
            "\"signature\":\"old\"}\n"
            "{\"type\":\"eval\",\"index\":1,\"feasible\":true,"
            "\"scored\":true,\"rejected_by\":\"\","
            "\"config_key_hash\":7,\"area_m2\":1,\"idle_w\":2,"
            "\"utilization\":0.5,\"accuracy\":0.9,\"energy_j\":3,"
            "\"latency_s\":4,\"objectives\":[3,4]}\n",
            f);
        std::fclose(f);
    }
    dse::JournalContents contents;
    ASSERT_TRUE(dse::readJournal(path, contents));
    std::remove(path.c_str());
    ASSERT_EQ(contents.evals.count(1), 1u);
    EXPECT_EQ(contents.evals[1].p99LatencyS, 0.0);
    EXPECT_EQ(contents.evals[1].goodputRps, 0.0);
    EXPECT_EQ(contents.evals[1].energyPerRequestJ, 0.0);
}

dse::ExploreOptions
servingExploreOptions()
{
    dse::ExploreOptions opt;
    opt.network = "lenet5";
    opt.strategy = dse::StrategyKind::Grid;
    opt.objectives = {dse::Objective::Energy,
                      dse::Objective::P99Latency,
                      dse::Objective::Goodput};
    // Deep overload: p99 is queue-drain-bound, so it depends on the
    // replica count (the monotonicity assertion below).
    opt.serving.arrivals.ratePerS = 200000.0;
    opt.serving.arrivals.seed = 17;
    opt.serving.durationS = 0.1;
    opt.serving.batch.maxBatch = 4;
    opt.serving.batch.timeoutS = 1e-3;
    opt.serving.sloS = 5e-3;
    return opt;
}

dse::SearchSpace
servingExploreSpace()
{
    dse::SearchSpace space;
    space.axis("plane", {16, 32})
        .axis("replicas", {1, 2})
        .axis("serve_batch", {4});
    return space;
}

TEST(DseBridge, ServingAxesAreSkippedByTheChipMaterializers)
{
    EXPECT_TRUE(dse::isServingAxis("replicas"));
    EXPECT_TRUE(dse::isServingAxis("shard_chips"));
    EXPECT_FALSE(dse::isServingAxis("plane"));
    const dse::SearchSpace space = servingExploreSpace();
    const dse::Candidate cand = space.candidate(3);
    const arch::IncaConfig cfg = dse::materializeInca(
        space, cand, arch::paperInca(), false);
    EXPECT_EQ(cfg.subarraySize, 32); // chip axis applied
}

TEST(DseBridge, ExplorerScoresServingObjectives)
{
    dse::Explorer explorer(servingExploreSpace(),
                           servingExploreOptions());
    const dse::ExploreResult result = explorer.run();
    ASSERT_EQ(result.evaluations.size(), 4u);
    for (const auto &e : result.evaluations) {
        EXPECT_TRUE(e.scored);
        EXPECT_GT(e.p99LatencyS, 0.0);
        EXPECT_GT(e.goodputRps, 0.0);
        EXPECT_GT(e.energyPerRequestJ, 0.0);
        ASSERT_EQ(e.objectives.size(), 3u);
        // Goodput is maximized: oriented value is negated.
        EXPECT_DOUBLE_EQ(e.objectives[2], -e.goodputRps);
    }
    // More replicas at a fixed overload means lower p99.
    const auto &space = explorer.space();
    for (const auto &a : result.evaluations)
        for (const auto &b : result.evaluations)
            if (space.value(a.candidate, "plane", 0) ==
                    space.value(b.candidate, "plane", 0) &&
                space.value(a.candidate, "replicas", 0) <
                    space.value(b.candidate, "replicas", 0)) {
                EXPECT_GT(a.p99LatencyS, b.p99LatencyS);
            }
}

/**
 * explore --network lenet5 --axis replicas=1,2,4
 *   --axis serve_batch=4,8 --axis plane=16,32
 *   --objectives energy,p99_latency,goodput --constraint max_p99_ms=400
 *   --arrivals poisson --rate 150k/s --serve-duration 100ms
 *   --batch-policy 8:1ms --slo-ms 400 --journal <journal>
 */
dse::ExploreOptions
sloSearchOptions(const std::string &journal)
{
    dse::ExploreOptions opt;
    opt.network = "lenet5";
    opt.objectives = dse::objectivesByNames("energy,p99_latency,goodput");
    opt.constraints.set("max_p99_ms=400");
    opt.serving.arrivals.kind = arrivalKindByName("poisson");
    opt.serving.arrivals.ratePerS = cli::parseRate("--rate", "150k/s");
    opt.serving.durationS =
        cli::parseDuration("--serve-duration", "100ms");
    opt.serving.batch.maxBatch = 8;
    opt.serving.batch.timeoutS =
        cli::parseDuration("--batch-policy", "1ms");
    opt.serving.sloS = cli::parseDouble("--slo-ms", "400") * 1e-3;
    opt.journalPath = journal;
    return opt;
}

dse::SearchSpace
sloSearchSpace()
{
    dse::SearchSpace space;
    space.axis("replicas", {1, 2, 4})
        .axis("serve_batch", {4, 8})
        .axis("plane", {16, 32});
    return space;
}

TEST(DseBridge, MaxP99ConstraintRejectsAfterScoring)
{
    dse::ExploreOptions opt = servingExploreOptions();
    opt.constraints.set("max_p99_ms=0.0001"); // impossible SLO
    dse::Explorer explorer(servingExploreSpace(), opt);
    const dse::ExploreResult result = explorer.run();
    EXPECT_TRUE(result.frontier.empty());
    for (const auto &e : result.evaluations) {
        EXPECT_TRUE(e.scored); // post-scoring bound, not a filter
        EXPECT_FALSE(e.feasible);
        EXPECT_NE(e.rejectedBy.find("max_p99_ms"),
                  std::string::npos);
    }

    // The documented SLO search: a 400 ms bound keeps a non-empty
    // frontier under it, and resuming from the journal replays every
    // evaluation to the same frontier.
    const std::string journal =
        ::testing::TempDir() + "/dse_slo_search.jsonl";
    dse::Explorer search(sloSearchSpace(), sloSearchOptions(journal));
    const dse::ExploreResult found = search.run();
    ASSERT_FALSE(found.frontier.empty());
    for (const auto &e : found.frontier) {
        EXPECT_LE(e.p99LatencyS * 1e3, 400.0);
        EXPECT_GT(e.goodputRps, 0.0);
    }
    for (const auto &e : found.evaluations)
        EXPECT_EQ(e.feasible, e.p99LatencyS * 1e3 <= 400.0)
            << e.rejectedBy;
    const std::string csv = dse::frontierCsv(
        search.space(), found.frontier, search.options().objectives);
    EXPECT_NE(csv.find("p99_latency_s"), std::string::npos);
    EXPECT_NE(dse::frontierJson(search, found)
                  .find("\"objectives\": [\"energy\", "
                        "\"p99_latency\", \"goodput\"]"),
              std::string::npos);
    std::ifstream in(journal);
    std::size_t lines = 0;
    for (std::string line; std::getline(in, line); ++lines)
        EXPECT_TRUE(testutil::JsonLint(line).valid()) << line;
    EXPECT_EQ(lines, found.evaluations.size() + 1);

    dse::ExploreOptions resume = sloSearchOptions(journal);
    resume.resume = true;
    dse::Explorer resumed(sloSearchSpace(), resume);
    const dse::ExploreResult replay = resumed.run();
    EXPECT_EQ(replay.scored, 0u);
    EXPECT_EQ(dse::frontierCsv(resumed.space(), replay.frontier,
                               resumed.options().objectives),
              csv);
    std::remove(journal.c_str());
}

TEST(DseBridge, ServingSignatureOnlyWhenServingIsScored)
{
    dse::ExploreOptions plain = servingExploreOptions();
    plain.objectives = {dse::Objective::Energy};
    dse::Explorer off(servingExploreSpace(), plain);
    EXPECT_EQ(off.signature().find("serving="), std::string::npos);
    dse::Explorer on(servingExploreSpace(),
                     servingExploreOptions());
    EXPECT_NE(on.signature().find("serving="), std::string::npos);
}

TEST(DseBridge, FrontierExportsCarryServingColumns)
{
    dse::Explorer explorer(servingExploreSpace(),
                           servingExploreOptions());
    const dse::ExploreResult result = explorer.run();
    const std::string csv =
        dse::frontierCsv(explorer.space(), result.frontier,
                         explorer.options().objectives);
    EXPECT_NE(csv.find("p99_latency_s,goodput_rps,"
                       "energy_per_request_j"),
              std::string::npos);
    const std::string json = dse::frontierJson(explorer, result);
    testutil::JsonLint lint(json);
    EXPECT_TRUE(lint.valid()) << "bad JSON near byte "
                              << lint.errorPos();
    EXPECT_NE(json.find("\"goodput_rps\""), std::string::npos);
}

} // namespace
} // namespace serving
} // namespace inca
