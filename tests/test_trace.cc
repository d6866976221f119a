/**
 * @file
 * Chrome trace-event recorder tests: disabled-path behavior, span and
 * counter recording, thread naming, JSON validity, and that neither
 * tracing nor the thread count changes a result of the sweep drivers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "driver_specs.hh"
#include "dse/explorer.hh"
#include "dse/journal.hh"
#include "json_lint.hh"

namespace inca {
namespace trace {
namespace {

/** Fixture: every test starts and ends with tracing off and empty. */
class Trace : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (enabled())
            stop();
        clear();
    }

    void
    TearDown() override
    {
        if (enabled())
            stop();
        clear();
    }

    static size_t
    countNamed(const std::string &name)
    {
        const auto events = snapshot();
        return size_t(std::count_if(
            events.begin(), events.end(),
            [&](const Event &e) { return e.name == name; }));
    }
};

TEST_F(Trace, DisabledRecordsNothing)
{
    ASSERT_FALSE(enabled());
    {
        Span span("invisible");
        counter("invisible.counter", 1.0);
    }
    EXPECT_EQ(countNamed("invisible"), 0u);
    EXPECT_EQ(countNamed("invisible.counter"), 0u);
}

TEST_F(Trace, SpanRecordsCompleteEvent)
{
    start("");
    {
        Span span("unit.work");
    }
    stop();
    const auto events = snapshot();
    const auto it = std::find_if(
        events.begin(), events.end(),
        [](const Event &e) { return e.name == "unit.work"; });
    ASSERT_NE(it, events.end());
    EXPECT_EQ(it->ph, 'X');
    EXPECT_GE(it->tsUs, 0);
    EXPECT_GE(it->durUs, 0);
}

TEST_F(Trace, SpanNameBuiltOnlyWhenEnabled)
{
    EXPECT_EQ(spanName("fwd ", "conv1"), "");
    start("");
    EXPECT_EQ(spanName("fwd ", "conv1"), "fwd conv1");
    stop();
}

TEST_F(Trace, CounterSamplesRecorded)
{
    start("");
    counter("cache.test.hits", 3.0);
    counter("cache.test.hits", 4.0);
    stop();
    const auto events = snapshot();
    double last = -1.0;
    size_t n = 0;
    for (const auto &e : events) {
        if (e.name != "cache.test.hits")
            continue;
        EXPECT_EQ(e.ph, 'C');
        last = e.value;
        ++n;
    }
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(last, 4.0);
}

TEST_F(Trace, SpanOpenAcrossStopIsDropped)
{
    start("");
    {
        Span span("straddler");
        stop();
    }
    EXPECT_EQ(countNamed("straddler"), 0u);
}

TEST_F(Trace, JsonIsValidWithHostileNames)
{
    start("");
    {
        Span span("quote\" slash\\ newline\n tab\t");
    }
    counter("ctr\"l", 1.5);
    const std::string json = stop();
    EXPECT_TRUE(testutil::jsonValid(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
}

TEST_F(Trace, NamedThreadsAppearAsMetadata)
{
    std::thread helper([] {
        nameThread("helper-thread");
        start("");
        {
            Span span("helper.work");
        }
    });
    helper.join();
    {
        // Touch the recorder from the main thread so its buffer (and
        // automatic "main" label) exists even when no earlier test ran
        // in this process.
        Span span("main.work");
    }
    const std::string json = stop();
    EXPECT_TRUE(testutil::jsonValid(json)) << json;
    // Sticky names survive even though the thread exited; the main
    // thread is auto-named by the recorder.
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("helper-thread"), std::string::npos);
    EXPECT_NE(json.find("\"main\""), std::string::npos);
}

TEST_F(Trace, PoolTasksRecordSpans)
{
    // A single-core host gives the global pool zero workers and an
    // inline parallel_for; force a real pool so chunks go through the
    // traced claim path.
    const int prev = ThreadPool::globalThreadCount();
    ThreadPool::setGlobalThreads(2);
    start("");
    parallel_for(std::int64_t(64), 8,
                 [](std::int64_t, std::int64_t) {});
    stop();
    EXPECT_GE(countNamed("pool.task"), 1u);
    // The worker announced its sticky name when it started; wait out
    // the (bounded) startup race before asserting on it.
    std::string json = toJson();
    for (int i = 0;
         i < 500 && json.find("pool-worker-1") == std::string::npos;
         ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        json = toJson();
    }
    EXPECT_NE(json.find("pool-worker-1"), std::string::npos);
    ThreadPool::setGlobalThreads(prev);
}

TEST_F(Trace, StopWritesFile)
{
    const std::string path = "/tmp/inca_trace_test.json";
    start(path);
    {
        Span span("to-disk");
    }
    const std::string json = stop();
    std::ifstream in(path);
    ASSERT_TRUE(bool(in));
    std::stringstream read;
    read << in.rdbuf();
    EXPECT_EQ(read.str(), json);
    std::remove(path.c_str());
}

TEST_F(Trace, ClearDropsEventsKeepsNames)
{
    start("");
    {
        Span span("gone");
    }
    stop();
    EXPECT_GE(eventCount(), 1u);
    clear();
    EXPECT_EQ(eventCount(), 0u);
    // The main thread's sticky name survives a clear().
    EXPECT_NE(toJson().find("\"main\""), std::string::npos);
}

/**
 * Every result of compare_dataflows at batch 64 (both phases) and of
 * design_space's two grid sweeps on resnet18, built exactly as the
 * drivers build them: each simulated run as its JSON export without
 * provenance, each DSE evaluation as its journal line plus its run.
 */
std::string
sweepDriverResults()
{
    std::string out = testutil::compareDataflowsRuns();
    const auto sweep = [&](const dse::SearchSpace &space,
                           const dse::ExploreOptions &options) {
        dse::Explorer explorer(space, options);
        for (const dse::Evaluation &e : explorer.run().evaluations)
            out += dse::evalToJsonLine(e) +
                   testutil::withoutProvenance(sim::toJson(e.run));
    };
    dse::ExploreOptions planeOpt = testutil::designSpaceOptions();
    planeOpt.isoCapacity = true;
    sweep(testutil::designSpacePlaneSweep(), planeOpt);
    sweep(testutil::designSpaceAdcSweep(),
          testutil::designSpaceOptions());
    return out;
}

TEST_F(Trace, SweepDriverResultsIgnoreTracingAndThreadCount)
{
    ThreadPool::setGlobalThreads(1);
    const std::string reference = sweepDriverResults();
    for (const int threads : {1, 8}) {
        SCOPED_TRACE(threads);
        ThreadPool::setGlobalThreads(threads);
        if (threads != 1) {
            EXPECT_EQ(sweepDriverResults(), reference) << "untraced";
        }
        start("");
        const std::string traced = sweepDriverResults();
        stop();
        EXPECT_GT(eventCount(), 0u);
        clear();
        EXPECT_EQ(traced, reference) << "traced";
    }
    ThreadPool::setGlobalThreads(1);
}

} // namespace
} // namespace trace
} // namespace inca
