/**
 * @file
 * ThreadPool semantics tests: exactly-once index coverage, nested
 * submission (no deadlock -- inner loops run inline on the worker),
 * exception propagation to the submitting thread, pool reusability
 * after a throw, and the INCA_NUM_THREADS failures that must be
 * fatal.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.hh"

// Sanitizer runtimes reserve their shadow memory up front.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define INCA_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define INCA_TEST_SANITIZED 1
#endif
#endif
#ifndef INCA_TEST_SANITIZED
#define INCA_TEST_SANITIZED 0
#endif

namespace inca {
namespace {

class ThreadPoolTest : public ::testing::Test
{
  protected:
    void TearDown() override { ThreadPool::setGlobalThreads(1); }
};

TEST_F(ThreadPoolTest, CoversEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ThreadPool::setGlobalThreads(threads);
        const std::int64_t n = 10007; // prime: uneven chunking
        std::vector<std::atomic<int>> hits(n);
        parallel_for(n, 7, [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t i = lo; i < hi; ++i)
                hits[size_t(i)].fetch_add(1,
                                          std::memory_order_relaxed);
        });
        for (std::int64_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[size_t(i)].load(), 1) << "index " << i;
    }
}

TEST_F(ThreadPoolTest, PerIndexVariantCoversEveryIndexOnce)
{
    ThreadPool::setGlobalThreads(8);
    const std::int64_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    parallel_for_each(n, 16, [&](std::int64_t i) {
        hits[size_t(i)].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::int64_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[size_t(i)].load(), 1) << "index " << i;
}

TEST_F(ThreadPoolTest, EmptyAndTinyRangesAreSafe)
{
    ThreadPool::setGlobalThreads(4);
    int calls = 0;
    parallel_for(0, 16, [&](std::int64_t, std::int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    std::int64_t seen = -1;
    parallel_for(1, 16, [&](std::int64_t lo, std::int64_t hi) {
        EXPECT_EQ(lo, 0);
        EXPECT_EQ(hi, 1);
        seen = lo;
    });
    EXPECT_EQ(seen, 0);
}

TEST_F(ThreadPoolTest, NestedSubmissionDoesNotDeadlock)
{
    ThreadPool::setGlobalThreads(4);
    const std::int64_t outer = 64, inner = 500;
    std::vector<std::int64_t> sums(outer, 0);
    parallel_for(outer, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t o = lo; o < hi; ++o) {
            // Inner loop runs inline on this worker: the fixed-size
            // pool can never starve itself.
            std::int64_t acc = 0;
            parallel_for(inner, 50,
                         [&](std::int64_t ilo, std::int64_t ihi) {
                             for (std::int64_t i = ilo; i < ihi; ++i)
                                 acc += i;
                         });
            sums[size_t(o)] = acc;
        }
    });
    const std::int64_t expect = inner * (inner - 1) / 2;
    for (std::int64_t o = 0; o < outer; ++o)
        ASSERT_EQ(sums[size_t(o)], expect) << "outer " << o;
}

TEST_F(ThreadPoolTest, ExceptionPropagatesToSubmitter)
{
    for (int threads : {1, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ThreadPool::setGlobalThreads(threads);
        EXPECT_THROW(
            parallel_for(1000, 4,
                         [&](std::int64_t lo, std::int64_t hi) {
                             for (std::int64_t i = lo; i < hi; ++i)
                                 if (i == 537)
                                     throw std::runtime_error("boom");
                         }),
            std::runtime_error);

        // The pool must stay usable after a throw.
        std::atomic<std::int64_t> count{0};
        parallel_for(1000, 4, [&](std::int64_t lo, std::int64_t hi) {
            count.fetch_add(hi - lo, std::memory_order_relaxed);
        });
        EXPECT_EQ(count.load(), 1000);
    }
}

TEST_F(ThreadPoolTest, ThreadCountClampsAndReports)
{
    ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(ThreadPool::globalThreadCount(), 1);
    ThreadPool::setGlobalThreads(0); // clamped up
    EXPECT_EQ(ThreadPool::globalThreadCount(), 1);
    ThreadPool::setGlobalThreads(3);
    EXPECT_EQ(ThreadPool::globalThreadCount(), 3);
}

// The env-sized global pool is built once per process, so each case
// runs in a freshly started child whatever style the binary was
// launched with.

TEST(ThreadPoolDeath, MalformedThreadCountIsFatal)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // Garbage, zero, a negative count, trailing characters and an
    // int overflow must never pick a thread count silently.
    for (const char *value :
         {"banana", "0", "-3", "4x", "99999999999"}) {
        SCOPED_TRACE(value);
        EXPECT_EXIT(
            {
                setenv("INCA_NUM_THREADS", value, 1);
                (void)ThreadPool::global();
            },
            ::testing::ExitedWithCode(1),
            std::string("INCA_NUM_THREADS='") + value +
                "' is not a whole number in \\[1, 2147483647\\]");
    }
}

TEST(ThreadPoolDeath, WorkerThatCannotStartIsFatal)
{
#if INCA_TEST_SANITIZED || !defined(__linux__)
    GTEST_SKIP() << "needs /proc, and an address-space cap breaks "
                    "sanitizer shadow memory";
#endif
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            setenv("INCA_NUM_THREADS", "100000", 1);
            // Cap the address space 64 MiB above what the child maps
            // now: the 8 MiB worker stacks run out after a few
            // threads instead of exhausting the host.
            long pages = 0;
            std::FILE *statm = std::fopen("/proc/self/statm", "r");
            if (statm == nullptr ||
                std::fscanf(statm, "%ld", &pages) != 1)
                std::exit(2);
            std::fclose(statm);
            rlimit cap{};
            getrlimit(RLIMIT_AS, &cap);
            cap.rlim_cur =
                rlim_t(pages) * rlim_t(sysconf(_SC_PAGESIZE)) +
                (rlim_t(64) << 20);
            if (setrlimit(RLIMIT_AS, &cap) != 0)
                std::exit(3);
            (void)ThreadPool::global();
        },
        ::testing::ExitedWithCode(1),
        "cannot start a pool of 100000 threads");
}

} // namespace
} // namespace inca
