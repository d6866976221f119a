/**
 * @file
 * Lowering and event execution stay allocation-flat: a program is a
 * few flat arrays, not a heap object per instruction, stat and
 * operand. This binary replaces the global operator new to count the
 * allocations one call makes, so it stands alone.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "arch/config.hh"
#include "event/event.hh"
#include "ir/lower.hh"
#include "nn/model_zoo.hh"

// Sanitizer runtimes own operator new; counting over them would
// measure their bookkeeping, not ours.
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

namespace {

/** Allocations made by this thread so far. */
thread_local long tAllocations = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++tAllocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace inca {
namespace {

/** Allocations @p fn makes on this thread. */
template <typename Fn>
long
allocationsOf(Fn &&fn)
{
    const long before = tAllocations;
    fn();
    return tAllocations - before;
}

/** Resnet50 at the paper point, inference, overlap on. */
ir::Program
lowerResnet50(const arch::IncaConfig &cfg, const nn::NetworkDesc &net)
{
    return ir::lowerInca(cfg, net, arch::Phase::Inference, 64,
                         ir::LowerOptions{/*overlap=*/true});
}

// Each bound sits just above the count measured when it was set. Each
// call runs once first, to warm one-time state such as the metric
// registry.

TEST(IrAllocations, Resnet50LoweringMakesAHandful)
{
#if INCA_TEST_SANITIZED
    GTEST_SKIP() << "the sanitizer runtime owns operator new";
#endif
    const nn::NetworkDesc net = nn::resnet50();
    const arch::IncaConfig cfg = arch::paperInca();
    ir::Program p = lowerResnet50(cfg, net);
    const long n = allocationsOf([&] { p = lowerResnet50(cfg, net); });
    EXPECT_GT(p.instrs.size(), 400u);
    EXPECT_LE(n, 12) << p.instrs.size() << " instructions";
}

TEST(IrAllocations, Resnet50ExecutionMakesAHandful)
{
#if INCA_TEST_SANITIZED
    GTEST_SKIP() << "the sanitizer runtime owns operator new";
#endif
    const ir::Program p =
        lowerResnet50(arch::paperInca(), nn::resnet50());
    event::TimedRun t = event::execute(p);
    const long n = allocationsOf([&] { t = event::execute(p); });
    EXPECT_GT(t.makespan, 0.0);
    EXPECT_LE(n, 13) << p.instrs.size() << " instructions";
}

TEST(IrAllocations, WsVgg16TrainingLoweringMakesAHandful)
{
#if INCA_TEST_SANITIZED
    GTEST_SKIP() << "the sanitizer runtime owns operator new";
#endif
    const nn::NetworkDesc net = nn::vgg16();
    const arch::BaselineConfig cfg = arch::paperBaseline();
    ir::Program p = ir::lowerWs(cfg, net, arch::Phase::Training, 64);
    const long n = allocationsOf([&] {
        p = ir::lowerWs(cfg, net, arch::Phase::Training, 64);
    });
    EXPECT_GT(p.instrs.size(), 100u);
    EXPECT_LE(n, 11) << p.instrs.size() << " instructions";
}

} // namespace
} // namespace inca
