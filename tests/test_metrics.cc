/**
 * @file
 * Process metrics registry tests: counters, gauges, histograms,
 * registration semantics, JSON rendering, and concurrent updates.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/metrics.hh"
#include "json_lint.hh"

namespace inca {
namespace metrics {
namespace {

TEST(Metrics, CounterAccumulatesAndResets)
{
    Counter &c = counter("test.counter.basic");
    c.reset();
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, SameNameReturnsSameMetric)
{
    Counter &a = counter("test.counter.shared");
    Counter &b = counter("test.counter.shared");
    EXPECT_EQ(&a, &b);
    a.reset();
    a.inc();
    EXPECT_EQ(b.value(), 1u);
}

TEST(Metrics, GaugeSetAndAdd)
{
    Gauge &g = gauge("test.gauge.basic");
    g.reset();
    g.set(2.5);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    g.add(1.5);
    EXPECT_DOUBLE_EQ(g.value(), 4.0);
}

TEST(Metrics, HistogramBucketsObservations)
{
    Histogram &h = histogram("test.hist.buckets");
    h.reset();
    h.observe(0.5);  // <= 1
    h.observe(5.0);  // <= 8
    h.observe(50.0); // <= 64
    h.observe(1e8);  // past 2^25: overflow
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 100000055.5);
    EXPECT_DOUBLE_EQ(h.mean(), 100000055.5 / 4.0);
    const auto buckets = h.bucketCounts();
    ASSERT_EQ(buckets.size(), Histogram::kBounds + 1);
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        const bool hit = i == 0 || i == 3 || i == 6 ||
                         i == Histogram::kBounds;
        EXPECT_EQ(buckets[i], hit ? 1u : 0u) << "bucket " << i;
    }
}

TEST(Metrics, BoundaryObservationLandsInLowerBucket)
{
    Histogram &h = histogram("test.hist.boundary");
    h.reset();
    h.observe(1.0); // inclusive upper bounds
    h.observe(2.0);
    h.observe(Histogram::bound(Histogram::kBounds - 1));
    const auto buckets = h.bucketCounts();
    EXPECT_EQ(buckets[0], 1u);
    EXPECT_EQ(buckets[1], 1u);
    EXPECT_EQ(buckets[Histogram::kBounds - 1], 1u);
    EXPECT_EQ(buckets[Histogram::kBounds], 0u);
}

TEST(Metrics, DefaultMicrosecondBuckets)
{
    EXPECT_DOUBLE_EQ(Histogram::bound(0), 1.0);
    for (std::size_t i = 1; i < Histogram::kBounds; ++i)
        EXPECT_DOUBLE_EQ(Histogram::bound(i),
                         2.0 * Histogram::bound(i - 1));
    EXPECT_DOUBLE_EQ(Histogram::bound(Histogram::kBounds - 1),
                     33554432.0); // 2^25 us, ~34 s
}

TEST(MetricsDeath, KindMismatchPanics)
{
    counter("test.kind.clash");
    EXPECT_DEATH(gauge("test.kind.clash"), "");
}

TEST(Metrics, ConcurrentUpdatesLoseNothing)
{
    Counter &c = counter("test.counter.mt");
    Histogram &h = histogram("test.hist.mt");
    c.reset();
    h.reset();
    constexpr int kThreads = 8, kEach = 1000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kEach; ++i) {
                c.inc();
                h.observe(double(i));
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(c.value(), std::uint64_t(kThreads) * kEach);
    EXPECT_EQ(h.count(), std::uint64_t(kThreads) * kEach);
}

TEST(Metrics, ToJsonIsValidAndComplete)
{
    counter("test.json.counter").inc(7);
    gauge("test.json.gauge").set(1.25);
    Histogram &h = histogram("test.json.hist");
    h.reset();
    h.observe(0.5);
    const std::string json = toJson();
    EXPECT_TRUE(testutil::jsonValid(json)) << json;
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"test.json.counter\""), std::string::npos);
    EXPECT_NE(json.find("\"test.json.gauge\""), std::string::npos);
    EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
    EXPECT_NE(json.find("\"+Inf\""), std::string::npos);
    // A histogram exports its totals and buckets, and nothing that
    // would need the samples it does not keep.
    EXPECT_NE(json.find("\"test.json.hist\": {\"count\": 1, \"sum\": "
                        "0.5, \"buckets\": [{\"le\": 1, \"count\": 1}, "
                        "{\"le\": 2, \"count\": 0}"),
              std::string::npos)
        << json;
    EXPECT_EQ(json.find("\"p99\""), std::string::npos);
    EXPECT_EQ(json.find("\"saturated\""), std::string::npos);
}

TEST(Metrics, ResetAllZeroesEverything)
{
    Counter &c = counter("test.reset.counter");
    Histogram &h = histogram("test.reset.hist");
    c.inc(5);
    h.observe(2.0);
    resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

} // namespace
} // namespace metrics
} // namespace inca
