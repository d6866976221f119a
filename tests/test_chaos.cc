/**
 * @file
 * Chaos-layer tests: strict parsers for --failures/--retry, the
 * outcome partition (every request terminal exactly once), retry
 * budget exhaustion, availability bounds and replica monotonicity,
 * Little's law under failures, hedging/failover accounting,
 * byte-identity of failure-enabled runs across threads and cache
 * settings, chaos-off equivalence with the pre-chaos simulator, and
 * the availability/shed DSE bridge with min_availability.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/export_util.hh"
#include "dse/explorer.hh"
#include "examples/cli.hh"
#include "json_lint.hh"
#include "serving/export.hh"
#include "serving/failures.hh"
#include "serving/simulator.hh"
#include "serving_fixtures.hh"

namespace inca {
namespace serving {
namespace {

// ---------------------------------------------------------------
// CLI parsers

TEST(ChaosCli, ParseFailureSpecAcceptsTheGrammar)
{
    const FailureSpec off = parseFailureSpec("--failures", "none");
    EXPECT_FALSE(off.enabled);

    const FailureSpec basic =
        parseFailureSpec("--failures", "200ms:50ms");
    EXPECT_TRUE(basic.enabled);
    EXPECT_DOUBLE_EQ(basic.mtbfS, 0.2);
    EXPECT_DOUBLE_EQ(basic.mttrS, 0.05);
    EXPECT_DOUBLE_EQ(basic.degradedFraction, 0.0);

    const FailureSpec full =
        parseFailureSpec("--failures", "2s:100ms:0.3:8");
    EXPECT_DOUBLE_EQ(full.mtbfS, 2.0);
    EXPECT_DOUBLE_EQ(full.mttrS, 0.1);
    EXPECT_DOUBLE_EQ(full.degradedFraction, 0.3);
    EXPECT_DOUBLE_EQ(full.slowdownFactor, 8.0);
}

TEST(ChaosCli, ParseRetrySpecAcceptsTheGrammar)
{
    const RetryPolicy off = parseRetrySpec("--retry", "none");
    EXPECT_EQ(off.budget, 0);

    const RetryPolicy basic = parseRetrySpec("--retry", "3:1ms");
    EXPECT_EQ(basic.budget, 3);
    EXPECT_DOUBLE_EQ(basic.backoffBaseS, 1e-3);
    EXPECT_DOUBLE_EQ(basic.jitter, 0.5);

    const RetryPolicy full =
        parseRetrySpec("--retry", "5:500us:0.25");
    EXPECT_EQ(full.budget, 5);
    EXPECT_DOUBLE_EQ(full.backoffBaseS, 500e-6);
    EXPECT_DOUBLE_EQ(full.jitter, 0.25);

    EXPECT_EQ(parseRetrySpec("--retry", "64:1ms").budget,
              kMaxRetryBudget);
}

TEST(ChaosCliDeathTest, ParseFailureSpecRejectsMalformedInput)
{
    EXPECT_DEATH(parseFailureSpec("--failures", ""), "empty value");
    EXPECT_DEATH(parseFailureSpec("--failures", "banana"),
                 "is not mtbf:mttr");
    EXPECT_DEATH(parseFailureSpec("--failures", "200ms"),
                 "is not mtbf:mttr");
    EXPECT_DEATH(parseFailureSpec("--failures", "1s:2s:0.1:4:x"),
                 "is not mtbf:mttr");
    EXPECT_DEATH(parseFailureSpec("--failures", "0s:50ms"),
                 "MTBF must be positive");
    EXPECT_DEATH(parseFailureSpec("--failures", "xs:50ms"),
                 "not a duration");
    EXPECT_DEATH(parseFailureSpec("--failures", "-1ms:50ms"),
                 "non-negative");
    EXPECT_DEATH(parseFailureSpec("--failures", "200ms:50"),
                 "needs a unit suffix");
    EXPECT_DEATH(parseFailureSpec("--failures", "200ms:50ms:1.5"),
                 "degraded fraction");
    EXPECT_DEATH(parseFailureSpec("--failures", "200ms:50ms:0.3:0.5"),
                 "slowdown factor");
    // strtod reads nan and inf; they must fail here, naming the
    // flag, not in the simulator's spec validation.
    EXPECT_DEATH(parseFailureSpec("--failures", "10ms:nanms"),
                 "not a finite duration");
    EXPECT_DEATH(parseFailureSpec("--failures", "infs:10ms"),
                 "not a finite duration");
    EXPECT_DEATH(parseFailureSpec("--failures", "10ms:10ms:nan"),
                 "not a finite number");
    EXPECT_DEATH(parseFailureSpec("--failures", "10ms:10ms:0.5:inf"),
                 "not a finite number");
}

TEST(ChaosCliDeathTest, ParseRetrySpecRejectsMalformedInput)
{
    EXPECT_DEATH(parseRetrySpec("--retry", ""), "empty value");
    EXPECT_DEATH(parseRetrySpec("--retry", "3"),
                 "is not budget:backoff");
    EXPECT_DEATH(parseRetrySpec("--retry", "1:2ms:0.5:zzz"),
                 "is not budget:backoff");
    EXPECT_DEATH(parseRetrySpec("--retry", "-1:1ms"),
                 "non-negative");
    EXPECT_DEATH(parseRetrySpec("--retry", "x:1ms"),
                 "not an integer");
    EXPECT_DEATH(parseRetrySpec("--retry", "3:0"),
                 "backoff base must be positive");
    EXPECT_DEATH(parseRetrySpec("--retry", "3:1ms:2"), "jitter");
    EXPECT_DEATH(parseRetrySpec("--retry", "3:nanms"),
                 "not a finite duration");
    EXPECT_DEATH(parseRetrySpec("--retry", "3:1ms:nan"),
                 "not a finite number");
    // Narrowed to int, 4294967296 would turn retries off, 4294967299
    // would become 3 and 3000000000 negative. Past 64 the backoff's
    // 2^(k-1) no longer fits in 64 bits.
    EXPECT_DEATH(parseRetrySpec("--retry", "4294967296:1ms"),
                 "retry budget 4294967296 exceeds 64");
    EXPECT_DEATH(parseRetrySpec("--retry", "4294967299:1ms"),
                 "exceeds 64");
    EXPECT_DEATH(parseRetrySpec("--retry", "3000000000:1ms"),
                 "exceeds 64");
    EXPECT_DEATH(parseRetrySpec("--retry", "65:1ms"), "exceeds 64");
}

TEST(ChaosCli, FailureSpecFromEnduranceDerivesTheMtbf)
{
    arch::EnduranceReport er;
    er.iterationsToWearOut = 1e6;
    const FailureSpec spec =
        failureSpecFromEndurance(er, 1e3, 0.05, 9);
    EXPECT_TRUE(spec.enabled);
    EXPECT_DOUBLE_EQ(spec.mtbfS, 1e3); // 1e6 iters / 1e3 per s
    EXPECT_DOUBLE_EQ(spec.mttrS, 0.05);
    EXPECT_DOUBLE_EQ(spec.aging, 0.9);
    EXPECT_EQ(spec.seed, 9u);
}

// ---------------------------------------------------------------
// Spec validation

ServingSpec
chaosSpec()
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
    spec.failures.enabled = true;
    spec.failures.mtbfS = 0.05;
    spec.failures.mttrS = 0.01;
    spec.failures.seed = 5;
    return spec;
}

/**
 * The README's failure-injection example with a 5 ms SLO: two lenet5
 * replicas under bursty 20k/s load for 200 ms, batches of 4 within
 * 1 ms, servers failing every ~50 ms (30 % mere 4x slowdowns), 2
 * retries, a 20 ms deadline, and queues of 64.
 */
ServingSpec
readmeChaosSpec()
{
    ServingSpec spec;
    spec.streams = {StreamSpec{"lenet5", 1.0, 0}};
    spec.arrivals.kind = ArrivalKind::Bursty;
    spec.arrivals.ratePerS = 20000.0;
    spec.durationS = 0.2;
    spec.replicas = 2;
    spec.batch.maxBatch = 4;
    spec.batch.timeoutS = 1e-3;
    spec.sloS = 5e-3;
    spec.failures = parseFailureSpec("--failures", "50ms:10ms:0.3:4");
    spec.retry = parseRetrySpec("--retry", "2:1ms");
    spec.deadlineS = 20e-3;
    spec.queueCap = 64;
    return spec;
}

TEST(ChaosSpecDeathTest, SimulateRejectsMalformedChaosFields)
{
    ServingSpec bad = chaosSpec();
    bad.failures.aging = 0.0;
    EXPECT_DEATH(simulate(bad), "aging factor");
    bad = chaosSpec();
    bad.retry.jitter = 2.0;
    EXPECT_DEATH(simulate(bad), "retry jitter");
    bad = chaosSpec();
    bad.deadlineS = -1.0;
    EXPECT_DEATH(simulate(bad), "deadline must be non-negative");
    bad = chaosSpec();
    bad.failures.slowdownFactor = 0.5;
    EXPECT_DEATH(simulate(bad), "slowdown factor");
    bad = chaosSpec();
    bad.retry.budget = kMaxRetryBudget + 1;
    EXPECT_DEATH(simulate(bad), "retry budget 65 outside");
}

// ---------------------------------------------------------------
// Chaos-off equivalence

/**
 * `serve --network lenet5 --rate 10k/s --duration 200ms --replicas 2
 * --batch-policy 4:1ms`: Poisson arrivals at seed 1, no SLO.
 */
ServingSpec
plainLenetSpec()
{
    ServingSpec spec;
    spec.streams = {StreamSpec{"lenet5", 1.0, 0}};
    spec.arrivals.ratePerS = 10e3;
    spec.durationS = 0.2;
    spec.replicas = 2;
    spec.batch = BatchPolicy{4, 1e-3};
    return spec;
}

TEST(ChaosOff, ExplicitNoneSpecMatchesTheDefaultByteForByte)
{
    ServingSpec small = chaosSpec();
    small.failures = FailureSpec{};
    for (const ServingSpec &plain : {small, plainLenetSpec()}) {
        const ServingReport ref = simulate(plain);

        // --failures none --retry none --queue-cap 0
        ServingSpec off = plain;
        off.failures = parseFailureSpec("--failures", "none");
        off.retry = parseRetrySpec("--retry", "none");
        off.queueCap = 0;
        off.deadlineS = 0.0;
        EXPECT_FALSE(chaosEnabled(off));
        const ServingReport rep = simulate(off);

        EXPECT_EQ(reportText(rep), reportText(ref));
        EXPECT_EQ(reportJson(rep), reportJson(ref));
        EXPECT_EQ(requestsCsv(rep), requestsCsv(ref));
        EXPECT_EQ(timelineCsv(rep), timelineCsv(ref));
        EXPECT_EQ(rep.shed, 0u);
        EXPECT_EQ(rep.completed, rep.offered);
        EXPECT_DOUBLE_EQ(rep.availability, 1.0);
        for (const RequestRecord &r : rep.requests)
            EXPECT_EQ(r.outcome, RequestOutcome::Ok);
    }
}

// ---------------------------------------------------------------
// Outcome accounting

TEST(ChaosOutcomes, EveryRequestIsTerminalExactlyOnce)
{
    ServingSpec spec = chaosSpec();
    spec.retry.budget = 2;
    spec.deadlineS = 10e-3;
    spec.queueCap = 8;
    const ServingReport rep = simulate(spec);
    ASSERT_EQ(rep.requests.size(), rep.offered);

    // The roll-up counters partition the offered requests...
    EXPECT_EQ(rep.completed + rep.shed + rep.timedOut + rep.failed,
              rep.offered);
    // ... and agree with a per-request tally.
    std::uint64_t byOutcome[4] = {0, 0, 0, 0};
    std::uint64_t retries = 0;
    for (const RequestRecord &r : rep.requests) {
        ++byOutcome[int(r.outcome)];
        retries += std::uint64_t(r.retries);
    }
    EXPECT_EQ(byOutcome[int(RequestOutcome::Ok)], rep.completed);
    EXPECT_EQ(byOutcome[int(RequestOutcome::Shed)], rep.shed);
    EXPECT_EQ(byOutcome[int(RequestOutcome::Timeout)], rep.timedOut);
    EXPECT_EQ(byOutcome[int(RequestOutcome::Failed)], rep.failed);
    EXPECT_EQ(retries, rep.retries);

    // Per-stream counters sum to the global ones.
    StreamStats total;
    for (const StreamStats &s : rep.streamStats) {
        total.offered += s.offered;
        total.completed += s.completed;
        total.shed += s.shed;
        total.timedOut += s.timedOut;
        total.failed += s.failed;
        total.retries += s.retries;
        total.failovers += s.failovers;
    }
    EXPECT_EQ(total.offered, rep.offered);
    EXPECT_EQ(total.completed, rep.completed);
    EXPECT_EQ(total.shed, rep.shed);
    EXPECT_EQ(total.timedOut, rep.timedOut);
    EXPECT_EQ(total.failed, rep.failed);
    EXPECT_EQ(total.retries, rep.retries);
    EXPECT_EQ(total.failovers, rep.failovers);
}

TEST(ChaosOutcomes, RetriesExhaustedRequestsAreCountedOnce)
{
    // Dropped in-flight work goes to the client's retry path; a
    // request that still dies must have burned its whole budget, and
    // the failure counter must see it exactly once.
    ServingSpec spec = chaosSpec();
    spec.failures.mtbfS = 0.002; // fail hard
    spec.failures.mttrS = 0.002;
    spec.failures.dropInFlight = true;
    spec.retry.budget = 1;
    spec.retry.backoffBaseS = 0.5e-3;
    const ServingReport rep = simulate(spec);
    EXPECT_GT(rep.failed, 0u);
    std::uint64_t failed = 0;
    for (const RequestRecord &r : rep.requests) {
        EXPECT_LE(r.retries, spec.retry.budget);
        if (r.outcome == RequestOutcome::Failed) {
            ++failed;
            EXPECT_EQ(r.retries, spec.retry.budget)
                << "request " << r.id
                << " gave up with budget left";
        }
    }
    EXPECT_EQ(failed, rep.failed);
    EXPECT_EQ(rep.completed + rep.shed + rep.timedOut + rep.failed,
              rep.offered);
}

TEST(ChaosOutcomes, QueueCapShedsArrivalsBeyondTheBound)
{
    ServingSpec spec = chaosSpec();
    spec.failures = FailureSpec{};
    spec.arrivals.ratePerS = 60000.0; // overload
    spec.queueCap = 2;
    const ServingReport rep = simulate(spec);
    EXPECT_GT(rep.shed, 0u);
    EXPECT_EQ(rep.completed + rep.shed, rep.offered);
    for (const RequestRecord &r : rep.requests) {
        if (r.outcome != RequestOutcome::Shed)
            continue;
        // Shed requests never reached a server.
        EXPECT_EQ(r.server, -1);
        EXPECT_DOUBLE_EQ(r.completionS, 0.0);
    }
    // The cap bounds every stream queue, so the waiting population
    // never exceeds cap x streams (the global overload gate).
    EXPECT_LE(rep.maxQueueDepth,
              spec.queueCap * rep.streamStats.size());
}

TEST(ChaosOutcomes, DeadlineMissesAreTimeouts)
{
    ServingSpec spec = chaosSpec();
    spec.arrivals.ratePerS = 20000.0; // queueing delay
    spec.deadlineS = 0.5e-3;          // under the 1ms batch timeout
    const ServingReport rep = simulate(spec);
    EXPECT_GT(rep.timedOut, 0u);
    for (const RequestRecord &r : rep.requests) {
        if (r.outcome == RequestOutcome::Ok) {
            EXPECT_LE(r.latencyS(),
                      spec.deadlineS + 1e-12)
                << "request " << r.id << " is late but Ok";
        } else if (r.outcome == RequestOutcome::Timeout &&
                   r.completionS > 0.0) {
            // Served late (reaped-in-queue ones never complete).
            EXPECT_GT(r.latencyS(), spec.deadlineS);
        }
    }
}

TEST(ChaosOutcomes, TimeoutTickPrecedesADeadlineAtTheSameInstant)
{
    // With the deadline equal to the batch timeout, a lone request's
    // tick and deadline fall on the same instant. The tick (kind 2)
    // pops first and dispatches the request, so the deadline finds it
    // in flight and judges it at completion. Reversed, every request
    // would be reaped from its queue instead.
    ServingSpec spec;
    spec.streams = {StreamSpec{"lenet5", 1.0, 0}};
    spec.arrivals.kind = ArrivalKind::Poisson;
    spec.arrivals.ratePerS = 50.0;
    spec.arrivals.seed = 3;
    spec.durationS = 1.0;
    spec.replicas = 1;
    spec.batch = BatchPolicy{16, 1e-3};
    spec.deadlineS = 1e-3;
    const ServingReport rep = simulate(spec);
    EXPECT_EQ(rep.offered, 53u);
    EXPECT_EQ(rep.batches, 52u);
    std::uint64_t heads = 0;
    for (const RequestRecord &r : rep.requests) {
        EXPECT_TRUE(r.hasDispatch()) << "request " << r.id << " reaped";
        if (r.dispatchS != r.arrivalS + spec.batch.timeoutS)
            continue;
        ++heads;
        EXPECT_EQ(r.outcome, RequestOutcome::Timeout)
            << "request " << r.id;
    }
    EXPECT_EQ(heads, rep.batches);
}

// ---------------------------------------------------------------
// Queueing identities

TEST(ChaosQueueing, LittlesLawHoldsUnderFailures)
{
    // The time-weighted depth integral and the per-request queue
    // residencies are independent accountings of the same queues;
    // with no deadline reaping they must agree exactly even while
    // servers die, work fails over, and arrivals are shed (a shed
    // request spends zero time queued on both sides).
    ServingSpec spec = chaosSpec();
    spec.retry.budget = 3;
    spec.queueCap = 16;
    const ServingReport rep = simulate(spec);
    double queuedSum = 0.0;
    for (const RequestRecord &r : rep.requests)
        queuedSum += r.queuedS;
    const double integral = rep.meanQueueDepth * rep.makespanS;
    EXPECT_NEAR(integral, queuedSum,
                1e-9 * std::max(1.0, queuedSum));
}

// ---------------------------------------------------------------
// Failure machinery

TEST(ChaosFailures, AvailabilityIsBoundedAndMonotoneInReplicas)
{
    ServingSpec small = chaosSpec();
    small.failures.mtbfS = 0.03;
    small.failures.mttrS = 0.02;
    // The plain lenet5 run with --failures 30ms:20ms --retry 3:1ms.
    ServingSpec lenet = plainLenetSpec();
    lenet.failures = parseFailureSpec("--failures", "30ms:20ms");
    lenet.retry = parseRetrySpec("--retry", "3:1ms");
    for (ServingSpec spec : {small, lenet}) {
        double last = -1.0;
        for (const int replicas : {1, 2, 4, 8}) {
            spec.replicas = replicas;
            const ServingReport rep = simulate(spec);
            EXPECT_GE(rep.availability, 0.0);
            EXPECT_LE(rep.availability, 1.0);
            // Per-server failure streams are independent, so adding
            // a replica only grows the union of accepting time.
            EXPECT_GE(rep.availability, last)
                << "availability shrank at " << replicas
                << " replicas";
            last = rep.availability;
            EXPECT_NEAR(rep.unavailableS,
                        (1.0 - rep.availability) * spec.durationS,
                        1e-9);
        }
        // One replica with MTBF well under the window must lose time.
        spec.replicas = 1;
        EXPECT_LT(simulate(spec).availability, 1.0);
    }
}

TEST(ChaosFailures, PerServerAccountingSumsToTheRollup)
{
    ServingSpec spec = chaosSpec();
    spec.failures.mtbfS = 0.02;
    spec.retry.budget = 1;
    const ServingReport rep = simulate(spec);
    EXPECT_GT(rep.failureEvents, 0u);
    std::uint64_t failures = 0, killed = 0;
    for (const ServerStats &s : rep.servers) {
        failures += s.failures;
        killed += s.killedBatches;
        EXPECT_GE(s.downS, 0.0);
        EXPECT_LE(s.downS, spec.durationS + 1e-12);
        EXPECT_LE(s.utilization, 1.0 + 1e-9);
    }
    EXPECT_EQ(failures, rep.failureEvents);
    EXPECT_EQ(killed, rep.killedBatches);
}

TEST(ChaosFailures, FailoverRevivesInFlightWork)
{
    // Re-enqueue (the default) instead of dropping: every request
    // still completes -- failovers cost latency, not outcomes.
    ServingSpec spec = chaosSpec();
    spec.failures.mtbfS = 0.01;
    spec.failures.dropInFlight = false;
    const ServingReport rep = simulate(spec);
    EXPECT_GT(rep.failovers, 0u);
    EXPECT_EQ(rep.failed, 0u);
    EXPECT_EQ(rep.completed, rep.offered);
}

TEST(ChaosFailures, HedgingDuplicatesSlowBatches)
{
    ServingSpec spec = chaosSpec();
    spec.failures = FailureSpec{};
    spec.replicas = 8;
    spec.hedgeDelayS = 0.5e-3; // under the 1ms batch timeout
    const ServingReport rep = simulate(spec);
    EXPECT_GT(rep.hedges, 0u);
    std::uint64_t flagged = 0;
    for (const RequestRecord &r : rep.requests)
        flagged += r.hedged ? 1 : 0;
    EXPECT_GT(flagged, 0u);
    EXPECT_EQ(rep.completed, rep.offered);
}

// ---------------------------------------------------------------
// Determinism + exports

ServingSpec
hedgingChaosSpec()
{
    ServingSpec spec = chaosSpec();
    spec.retry.budget = 2;
    spec.deadlineS = 10e-3;
    spec.queueCap = 16;
    spec.hedgeDelayS = 0.5e-3;
    return spec;
}

TEST(ChaosDeterminism, FailureRunBytesIdenticalAcrossThreadsAndCache)
{
    // Failure traces, retries, deadlines, hedging and shedding are
    // pure functions of the spec: the thread count and the cache
    // switch change wall time only, and every run below replays the
    // reference's seed request for request.
    for (const ServingSpec &spec :
         {hedgingChaosSpec(), readmeChaosSpec()})
        testutil::expectExportsIndependentOfThreadsAndCache(spec);
}

TEST(ChaosExports, ChaosRunsExportWellFormedArtifacts)
{
    ServingSpec small = chaosSpec();
    small.retry.budget = 1;
    small.queueCap = 16;
    for (const ServingSpec &spec : {small, readmeChaosSpec()}) {
        const ServingReport rep = simulate(spec);
        EXPECT_EQ(rep.completed + rep.shed + rep.timedOut + rep.failed,
                  rep.offered);
        EXPECT_GE(rep.availability, 0.0);
        EXPECT_LE(rep.availability, 1.0);
        const std::string json = reportJson(rep);
        testutil::JsonLint lint(json);
        EXPECT_TRUE(lint.valid()) << "bad JSON near byte "
                                  << lint.errorPos();
        EXPECT_NE(json.find("\"kind\": \"serving.report\""),
                  std::string::npos);
        EXPECT_NE(json.find("\"chaos\": {\n    \"failures\": "
                            "{\"enabled\": true"),
                  std::string::npos);
        EXPECT_NE(json.find("\"availability\": " +
                            num17(rep.availability)),
                  std::string::npos);
        const std::string csv = requestsCsv(rep);
        EXPECT_EQ(csv.rfind("id,stream,network,arrival_s,dispatch_s,"
                            "completion_s,latency_s,wait_s,server,"
                            "batch_size,outcome,retries,hedged,"
                            "queued_s\n",
                            0),
                  0u);
        testutil::expectRectangular(csv, rep.offered, "requestsCsv");
        testutil::expectRectangular(timelineCsv(rep),
                                    rep.queueTimeline.size(),
                                    "timelineCsv");
        EXPECT_NE(reportText(rep).find("availability"),
                  std::string::npos);
    }
}

// printf "%.17g" of @p v; empty for a time the request never had.
std::string
printf17(double v, bool has = true)
{
    if (!has)
        return "";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** requestsCsv rebuilt row by row with snprintf. */
std::string
referenceRequestsCsv(const ServingReport &rep)
{
    const bool chaos = chaosEnabled(rep.spec);
    std::string out = "id,stream,network,arrival_s,dispatch_s,"
                      "completion_s,latency_s,wait_s,server,batch_size";
    out += chaos ? ",outcome,retries,hedged,queued_s\n" : "\n";
    char row[512];
    for (const RequestRecord &r : rep.requests) {
        const bool dispatched = r.hasDispatch();
        const bool completed = r.hasCompletion();
        std::snprintf(
            row, sizeof(row), "%llu,%d,%s,%s,%s,%s,%s,%s,%d,%d",
            static_cast<unsigned long long>(r.id), r.stream,
            csvField(rep.spec.streams[std::size_t(r.stream)].network)
                .c_str(),
            printf17(r.arrivalS).c_str(),
            printf17(r.dispatchS, dispatched).c_str(),
            printf17(r.completionS, completed).c_str(),
            printf17(r.completionS - r.arrivalS, completed).c_str(),
            printf17(r.dispatchS - r.arrivalS, dispatched).c_str(),
            r.server, r.batchSize);
        out += row;
        if (chaos) {
            std::snprintf(row, sizeof(row), ",%s,%d,%d,%s",
                          requestOutcomeName(r.outcome), r.retries,
                          r.hedged ? 1 : 0, printf17(r.queuedS).c_str());
            out += row;
        }
        out += '\n';
    }
    return out;
}

/** timelineCsv rebuilt row by row with snprintf. */
std::string
referenceTimelineCsv(const ServingReport &rep)
{
    std::string out = "time_s,queue_depth\n";
    char row[64];
    for (const auto &point : rep.queueTimeline) {
        std::snprintf(row, sizeof(row), "%.17g,%llu\n", point.first,
                      static_cast<unsigned long long>(point.second));
        out += row;
    }
    return out;
}

/** The comma-separated fields of one CSV line (no quoted fields). */
std::vector<std::string>
splitRow(const std::string &line)
{
    std::vector<std::string> fields(1);
    for (const char c : line) {
        if (c == ',')
            fields.emplace_back();
        else
            fields.back() += c;
    }
    return fields;
}

TEST(ChaosExports, CsvsMatchAPrintfReference)
{
    // Chaos off, the README failure example (ok and shed rows), and
    // failures that drop in-flight work under a tight deadline with
    // hedging (hedged, timeout and failed rows, some dispatched but
    // never completed).
    ServingSpec off = readmeChaosSpec();
    off.failures = FailureSpec{};
    off.retry = RetryPolicy{};
    off.deadlineS = 0.0;
    off.queueCap = 0;
    ServingSpec harsh = hedgingChaosSpec();
    harsh.arrivals.ratePerS = 20000.0;
    harsh.replicas = 4;
    harsh.deadlineS = 2e-3;
    harsh.failures.mtbfS = 0.005;
    harsh.failures.mttrS = 0.003;
    harsh.failures.dropInFlight = true;
    harsh.retry.budget = 1;
    harsh.retry.backoffBaseS = 0.5e-3;
    std::uint64_t neverDispatched = 0, neverCompleted = 0, hedged = 0;
    std::uint64_t byOutcome[4] = {0, 0, 0, 0};
    for (const ServingSpec &spec : {off, readmeChaosSpec(), harsh}) {
        const ServingReport rep = simulate(spec);
        const std::string csv = requestsCsv(rep);
        EXPECT_EQ(csv, referenceRequestsCsv(rep));
        EXPECT_EQ(timelineCsv(rep), referenceTimelineCsv(rep));

        // Never-served requests leave their times empty instead of
        // exporting 0 - arrival: no latency or wait is negative, and
        // every Ok request has all four times.
        std::size_t at = csv.find('\n') + 1;
        for (const RequestRecord &r : rep.requests) {
            const std::size_t end = csv.find('\n', at);
            const std::vector<std::string> f =
                splitRow(csv.substr(at, end - at));
            at = end + 1;
            ASSERT_GE(f.size(), 8u);
            for (const std::string &field : {f[6], f[7]})
                EXPECT_TRUE(field.empty() || field[0] != '-')
                    << "request " << r.id << ": " << field;
            EXPECT_EQ(f[4].empty(), f[7].empty()) << "request " << r.id;
            EXPECT_EQ(f[5].empty(), f[6].empty()) << "request " << r.id;
            if (r.outcome == RequestOutcome::Ok) {
                EXPECT_FALSE(f[4].empty() || f[5].empty())
                    << "request " << r.id;
            }
            neverDispatched += f[4].empty();
            neverCompleted += !f[4].empty() && f[5].empty();
            hedged += r.hedged;
            ++byOutcome[int(r.outcome)];
        }
        if (!chaosEnabled(spec)) {
            EXPECT_EQ(csv.find(",,"), std::string::npos);
        }
    }
    // The specs reach every kind of row the writer distinguishes.
    EXPECT_GT(neverDispatched, 0u);
    EXPECT_GT(neverCompleted, 0u);
    EXPECT_GT(hedged, 0u);
    for (const std::uint64_t n : byOutcome)
        EXPECT_GT(n, 0u);
}

TEST(ChaosExports, LongestRowsMatchAPrintfReference)
{
    // A hand-built report whose fields take the row writers' longest
    // outputs: a quoted stream name longer than any zoo name, ids
    // near UINT64_MAX, INT_MIN and INT_MAX ints (a negative server
    // was never dispatched), 24-byte numbers such as
    // -2.2250738585072014e-308, -0.0, inf and nan. Each row is
    // written into one buffer sized from these bounds; the longest
    // row here comes within 13 bytes of that size (10 of them are the
    // stream index's), so a buffer 13 bytes shorter fails under ASan.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const int lo = std::numeric_limits<int>::min();
    const int hi = std::numeric_limits<int>::max();
    const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
    ServingReport rep;
    rep.spec.streams = {
        StreamSpec{"lenet5", 1.0, 0},
        StreamSpec{"a \"custom\" network, pruned to int8 for the edge, "
                   "revision 2, with a longer name than any zoo net",
                   1.0, 1}};
    rep.requests = {
        {.id = top, .stream = 1, .server = lo, .batchSize = lo,
         .arrivalS = -DBL_MIN, .completionS = -0.0,
         .outcome = RequestOutcome::Shed, .retries = lo, .hedged = true,
         .queuedS = -DBL_MIN},
        {.id = top - 1, .stream = 1, .server = hi, .batchSize = hi,
         .arrivalS = -DBL_MIN, .dispatchS = -DBL_MAX, .completionS = inf,
         .outcome = RequestOutcome::Timeout, .retries = hi,
         .queuedS = nan},
        {.id = 0, .stream = 0, .server = 0, .batchSize = 1,
         .arrivalS = DBL_MAX, .dispatchS = -DBL_MIN,
         .completionS = DBL_MIN, .outcome = RequestOutcome::Failed,
         .hedged = true, .queuedS = -inf},
        {.id = top, .stream = 1, .server = hi, .batchSize = lo,
         .arrivalS = -0.0, .dispatchS = nan, .completionS = 5e-324,
         .retries = hi, .queuedS = -nan},
        // The longest row a request can have: a dispatched request
        // (server >= 0) whose completion, and so latency, is > 0.
        {.id = top, .stream = 1, .server = hi, .batchSize = lo,
         .arrivalS = -1.2345678901234567e-100, .dispatchS = -DBL_MAX,
         .completionS = DBL_MIN, .outcome = RequestOutcome::Timeout,
         .retries = lo, .hedged = true, .queuedS = -DBL_MIN},
        {.id = 7, .stream = 0, .server = 3, .batchSize = 16,
         .arrivalS = 0.123456789, .dispatchS = 0.1234568,
         .completionS = 0.2, .retries = 2, .queuedS = 1.5e-3},
    };
    rep.queueTimeline = {{-DBL_MIN, top}, {-0.0, 0},    {inf, 1},
                         {nan, top},      {-DBL_MAX, 2}, {0.25, 7}};
    for (const int queueCap : {0, 1}) { // chaos columns off, then on
        rep.spec.queueCap = queueCap;
        ASSERT_EQ(chaosEnabled(rep.spec), queueCap > 0);
        const std::string csv = requestsCsv(rep);
        EXPECT_EQ(csv, referenceRequestsCsv(rep));
        EXPECT_EQ(timelineCsv(rep), referenceTimelineCsv(rep));
        testutil::expectRectangular(csv, rep.requests.size(),
                                    "requestsCsv");
        // Row 3's latency and wait are both 24 bytes.
        EXPECT_NE(csv.find(",2.2250738585072014e-308,"
                           "-1.7976931348623157e+308,"
                           "-1.7976931348623157e+308,0,1"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------
// DSE bridge

dse::ExploreOptions
chaosExploreOptions()
{
    dse::ExploreOptions opt;
    opt.network = "lenet5";
    opt.strategy = dse::StrategyKind::Grid;
    opt.objectives = {dse::Objective::Availability,
                      dse::Objective::EnergyPerRequest};
    opt.serving.arrivals.ratePerS = 20000.0;
    opt.serving.arrivals.seed = 17;
    opt.serving.durationS = 0.1;
    opt.serving.batch.maxBatch = 4;
    opt.serving.batch.timeoutS = 1e-3;
    opt.serving.sloS = 5e-3;
    return opt;
}

dse::SearchSpace
chaosExploreSpace()
{
    dse::SearchSpace space;
    space.axis("plane", {16})
        .axis("replicas", {1, 2})
        .axis("failure_mtbf", {0, 20}); // ms; 0 = injection off
    return space;
}

TEST(DseChaos, FailureMtbfIsAServingAxis)
{
    EXPECT_TRUE(dse::isServingAxis("failure_mtbf"));
}

TEST(DseChaos, ExplorerScoresAvailability)
{
    dse::Explorer explorer(chaosExploreSpace(),
                           chaosExploreOptions());
    const dse::ExploreResult result = explorer.run();
    ASSERT_EQ(result.evaluations.size(), 4u);
    const auto &space = explorer.space();
    bool anyLoss = false;
    for (const auto &e : result.evaluations) {
        EXPECT_TRUE(e.scored);
        EXPECT_GE(e.availability, 0.0);
        EXPECT_LE(e.availability, 1.0);
        // The mtbf=0 arm runs with injection off: perfect nines.
        if (space.value(e.candidate, "failure_mtbf", 0) == 0)
            EXPECT_DOUBLE_EQ(e.availability, 1.0);
        else if (e.availability < 1.0)
            anyLoss = true;
    }
    // The single-replica injected arm must have lost some window.
    EXPECT_TRUE(anyLoss);
    EXPECT_FALSE(result.frontier.empty());
}

TEST(DseChaos, MinAvailabilityConstraintRejectsAfterScoring)
{
    dse::ExploreOptions opt = chaosExploreOptions();
    opt.constraints.set("min_availability=0.999999");
    dse::SearchSpace space;
    space.axis("plane", {16})
        .axis("replicas", {1})
        .axis("failure_mtbf", {1}); // 1ms MTBF: hopeless
    dse::Explorer explorer(space, opt);
    const dse::ExploreResult result = explorer.run();
    EXPECT_TRUE(result.frontier.empty());
    for (const auto &e : result.evaluations) {
        EXPECT_TRUE(e.scored); // post-scoring bound, not a filter
        EXPECT_FALSE(e.feasible);
        EXPECT_NE(e.rejectedBy.find("min_availability"),
                  std::string::npos);
    }

    // explore --network lenet5 --axis replicas=1,2 --axis plane=16
    //   --axis failure_mtbf=0,20
    //   --objectives availability,energy_per_request
    //   --constraint min_availability=0.9 --arrivals poisson
    //   --rate 20k/s --serve-duration 100ms --batch-policy 4:1ms
    //   --slo-ms 5
    dse::ExploreOptions cliOpt;
    cliOpt.network = "lenet5";
    cliOpt.objectives =
        dse::objectivesByNames("availability,energy_per_request");
    cliOpt.constraints.set("min_availability=0.9");
    cliOpt.serving.arrivals.kind = arrivalKindByName("poisson");
    cliOpt.serving.arrivals.ratePerS =
        cli::parseRate("--rate", "20k/s");
    cliOpt.serving.durationS =
        cli::parseDuration("--serve-duration", "100ms");
    cliOpt.serving.batch.maxBatch = 4;
    cliOpt.serving.batch.timeoutS =
        cli::parseDuration("--batch-policy", "1ms");
    cliOpt.serving.sloS = cli::parseDouble("--slo-ms", "5") * 1e-3;
    dse::SearchSpace cliSpace;
    cliSpace.axis("replicas", {1, 2})
        .axis("plane", {16})
        .axis("failure_mtbf", {0, 20});
    dse::Explorer bounded(cliSpace, cliOpt);
    const dse::ExploreResult kept = bounded.run();
    ASSERT_FALSE(kept.frontier.empty());
    for (const auto &e : kept.frontier)
        EXPECT_GE(e.availability, 0.9);
    EXPECT_NE(dse::frontierCsv(bounded.space(), kept.frontier,
                               cliOpt.objectives)
                  .find("availability"),
              std::string::npos);
}

TEST(DseChaos, ChaosSignatureOnlyWhenChaosIsActive)
{
    // A chaos axis (or scenario) stamps the journal signature; a
    // plain serving exploration keeps the pre-chaos signature so old
    // journals stay replayable.
    dse::ExploreOptions opt = chaosExploreOptions();
    dse::SearchSpace plain;
    plain.axis("plane", {16}).axis("replicas", {1, 2});
    dse::Explorer off(plain, opt);
    EXPECT_EQ(off.signature().find("chaos="), std::string::npos);
    dse::Explorer on(chaosExploreSpace(), opt);
    EXPECT_NE(on.signature().find("chaos="), std::string::npos);
}

TEST(DseChaos, FrontierExportsCarryChaosColumns)
{
    dse::Explorer explorer(chaosExploreSpace(),
                           chaosExploreOptions());
    const dse::ExploreResult result = explorer.run();
    const std::string csv =
        dse::frontierCsv(explorer.space(), result.frontier,
                         explorer.options().objectives);
    EXPECT_NE(csv.find("availability,shed_fraction"),
              std::string::npos);
    const std::string json = dse::frontierJson(explorer, result);
    testutil::JsonLint lint(json);
    EXPECT_TRUE(lint.valid()) << "bad JSON near byte "
                              << lint.errorPos();
    EXPECT_NE(json.find("\"availability\""), std::string::npos);
}

} // namespace
} // namespace serving
} // namespace inca
