/**
 * @file
 * The lowering pass's structural contract.
 *
 * Two layers of protection: golden snapshots (tests/goldens_ir.inc,
 * regenerated by scripts/regen_goldens.sh) pin the exact instruction
 * stream -- opcode, unit, duration, dependency, operand -- for the
 * small paper networks, so any lowering change is a reviewed diff;
 * and property tests assert the invariants every lowered program must
 * satisfy regardless of network or config: dependencies form a DAG
 * that drains, every tensor is produced before it is consumed,
 * lowering is deterministic (repeated lowerings agree), and the
 * overlap flag rewires dependencies without touching the work
 * (instructions, durations, stats, operands all bit-identical).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "ir/ir.hh"
#include "ir/lower.hh"
#include "nn/model_zoo.hh"

namespace inca {
namespace {

/** One pinned (engine, network, phase) disassembly. */
struct IrGolden
{
    const char *engine;
    const char *network;
    const char *phase;
    const char *disasm;
};

#include "goldens_ir.inc"

ir::Program
lower(const std::string &engine, const nn::NetworkDesc &net,
      arch::Phase phase, int batch, bool overlap = false)
{
    const ir::LowerOptions opts{overlap};
    return engine == "inca"
               ? ir::lowerInca(arch::paperInca(), net, phase, batch,
                               opts)
               : ir::lowerWs(arch::paperBaseline(), net, phase,
                             batch, opts);
}

/** The (engine, phase, network, overlap) matrix the properties sweep. */
std::vector<ir::Program>
propertyPrograms()
{
    std::vector<ir::Program> out;
    for (const auto &net :
         {nn::lenet5(), nn::vgg8(), nn::resnet18(),
          nn::mobilenetV2()})
        for (const char *engine : {"inca", "ws"})
            for (const arch::Phase phase :
                 {arch::Phase::Inference, arch::Phase::Training})
                for (const bool overlap : {false, true})
                    out.push_back(
                        lower(engine, net, phase, 64, overlap));
    return out;
}

TEST(IrLoweringTest, DisassemblyMatchesGoldenSnapshot)
{
    ASSERT_GT(std::size(kIrGoldens), 0u);
    for (const IrGolden &g : kIrGoldens) {
        SCOPED_TRACE(std::string(g.engine) + "." + g.network + "." +
                     g.phase);
        const arch::Phase phase =
            std::strcmp(g.phase, "training") == 0
                ? arch::Phase::Training
                : arch::Phase::Inference;
        const ir::Program p = lower(g.engine, nn::byName(g.network),
                                    phase, kIrGoldenBatch);
        EXPECT_EQ(ir::disassemble(p), g.disasm);
    }
}

TEST(IrLoweringTest, DependenciesPointStrictlyBackwards)
{
    for (const ir::Program &p : propertyPrograms()) {
        SCOPED_TRACE(p.engine + "." + p.network +
                     (p.overlap ? "+overlap" : ""));
        for (int i = 0; i < int(p.instrs.size()); ++i)
            for (const int d : p.instrs[std::size_t(i)].deps) {
                EXPECT_GE(d, 0);
                EXPECT_LT(d, i);
            }
    }
}

TEST(IrLoweringTest, DependencyGraphDrainsCompletely)
{
    // Kahn's algorithm must consume every instruction: a cycle (or a
    // dependency on a never-scheduled instruction) would deadlock the
    // event backend.
    for (const ir::Program &p : propertyPrograms()) {
        SCOPED_TRACE(p.engine + "." + p.network +
                     (p.overlap ? "+overlap" : ""));
        const int n = int(p.instrs.size());
        std::vector<int> indeg(std::size_t(n), 0);
        std::vector<std::vector<int>> succ(
            static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
            indeg[std::size_t(i)] =
                int(p.instrs[std::size_t(i)].deps.size());
            for (const int d : p.instrs[std::size_t(i)].deps)
                succ[std::size_t(d)].push_back(i);
        }
        std::vector<int> frontier;
        for (int i = 0; i < n; ++i)
            if (indeg[std::size_t(i)] == 0)
                frontier.push_back(i);
        int drained = 0;
        while (!frontier.empty()) {
            const int i = frontier.back();
            frontier.pop_back();
            ++drained;
            for (const int s : succ[std::size_t(i)])
                if (--indeg[std::size_t(s)] == 0)
                    frontier.push_back(s);
        }
        EXPECT_EQ(drained, n);
    }
}

TEST(IrLoweringTest, TensorsAreProducedBeforeConsumed)
{
    for (const ir::Program &p : propertyPrograms()) {
        SCOPED_TRACE(p.engine + "." + p.network +
                     (p.overlap ? "+overlap" : ""));
        std::set<std::string> live;
        for (const ir::Operand in : p.inputs)
            live.insert(ir::operandName(p, in));
        for (const ir::Instr &in : p.instrs) {
            for (const ir::Operand r : in.reads)
                EXPECT_EQ(live.count(ir::operandName(p, r)), 1u)
                    << ir::operandName(p, r);
            for (const ir::Operand w : in.writes)
                live.insert(ir::operandName(p, w));
        }
    }
}

TEST(IrLoweringTest, LoweringIsDeterministic)
{
    // Repeated lowerings of one (engine, network, phase) must produce
    // the identical stream.
    for (const char *engine : {"inca", "ws"}) {
        for (const arch::Phase phase :
             {arch::Phase::Inference, arch::Phase::Training}) {
            SCOPED_TRACE(std::string(engine) +
                         (phase == arch::Phase::Training ? ".trn"
                                                         : ".inf"));
            const auto net = nn::vgg8();
            const std::string first =
                ir::disassemble(lower(engine, net, phase, 64));
            EXPECT_EQ(ir::disassemble(lower(engine, net, phase, 64)),
                      first);
        }
    }
}

TEST(IrLoweringTest, OverlapRewiresDependenciesNotWork)
{
    // The overlap flag may only relax when an instruction starts; the
    // instructions themselves -- and therefore every energy/count
    // stat and every per-span collapse -- must be bit-identical.
    for (const auto &net : {nn::lenet5(), nn::vgg16()}) {
        for (const char *engine : {"inca", "ws"}) {
            for (const arch::Phase phase :
                 {arch::Phase::Inference, arch::Phase::Training}) {
                SCOPED_TRACE(std::string(engine) + "." + net.name);
                const ir::Program off =
                    lower(engine, net, phase, 64, false);
                const ir::Program on =
                    lower(engine, net, phase, 64, true);
                ASSERT_EQ(on.instrs.size(), off.instrs.size());
                ASSERT_EQ(on.spans.size(), off.spans.size());
                for (std::size_t i = 0; i < off.instrs.size(); ++i) {
                    const ir::Instr &a = off.instrs[i];
                    const ir::Instr &b = on.instrs[i];
                    EXPECT_EQ(int(b.op), int(a.op));
                    EXPECT_EQ(int(b.unit), int(a.unit));
                    EXPECT_EQ(b.label, a.label);
                    EXPECT_EQ(b.span, a.span);
                    EXPECT_EQ(b.duration, a.duration);
                    EXPECT_EQ(b.reads, a.reads);
                    EXPECT_EQ(b.writes, a.writes);
                    EXPECT_EQ(on.names, off.names);
                    EXPECT_EQ(b.stats, a.stats);
                }
                for (std::size_t s = 0; s < off.spans.size(); ++s) {
                    const auto a = ir::collapseSpan(off, off.spans[s]);
                    const auto b = ir::collapseSpan(on, on.spans[s]);
                    EXPECT_EQ(b.latency, a.latency);
                    EXPECT_EQ(b.stats, a.stats);
                }
            }
        }
    }
}

TEST(IrLoweringTest, ValidateRejectsMalformedPrograms)
{
    // validate() is the lowering pass's own safety net; make sure it
    // actually bites on the failure modes the properties above assume
    // away.
    const ir::Program good =
        lower("inca", nn::lenet5(), arch::Phase::Inference, 64);

    ir::Program forwardDep = good;
    forwardDep.instrs[0].deps.push_back(
        int(forwardDep.instrs.size()) - 1);
    EXPECT_DEATH(ir::validate(forwardDep), "");

    ir::Program unboundRead = good;
    unboundRead.instrs[0].reads.push_back(
        {ir::Role::Act, ir::addName(unboundRead, "never.written")});
    EXPECT_DEATH(ir::validate(unboundRead), "");

    ir::Program duplicateDep = good;
    const int last = int(duplicateDep.instrs.size()) - 1;
    duplicateDep.instrs[std::size_t(last)].deps.push_back(
        duplicateDep.instrs[std::size_t(last)].deps[0]);
    EXPECT_DEATH(ir::validate(duplicateDep), "twice");

    ir::Program noExit = good;
    noExit.instrs.push_back(noExit.instrs.back());
    EXPECT_DEATH(ir::validate(noExit), "");
}

} // namespace
} // namespace inca
