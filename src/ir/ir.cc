#include "ir/ir.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <sstream>
#include <utility>

#include "common/export_util.hh"
#include "common/logging.hh"

namespace inca {
namespace ir {

const char *
opName(Op op)
{
    switch (op) {
      case Op::Load:
        return "load";
      case Op::Mvm:
        return "mvm";
      case Op::Move:
        return "move";
      case Op::Activation:
        return "activation";
      case Op::Reduce:
        return "reduce";
      case Op::Sync:
        return "sync";
    }
    panic("unreachable op %d", int(op));
}

const char *
unitName(Unit unit)
{
    switch (unit) {
      case Unit::Dram:
        return "dram";
      case Unit::Buffer:
        return "buffer";
      case Unit::Array:
        return "array";
      case Unit::Adc:
        return "adc";
      case Unit::Digital:
        return "digital";
      case Unit::Pipeline:
        return "pipeline";
      case Unit::Ctrl:
        return "ctrl";
    }
    panic("unreachable unit %d", int(unit));
}

namespace {

/** The spelling of each Role, indexed by it. */
constexpr const char *kRoleNames[] = {
    "act", "grad", "w.fetch", "wT.fetch", "psum", "out",
    "err", "dw",   "w",       "wT",       "fetch",
};
static_assert(std::size(kRoleNames) == std::size_t(kRoleCount));

/** The spelling of each Verb, indexed by it. */
constexpr const char *kVerbNames[] = {
    "", "load", "load-T", "mvm", "reduce", "move", "sync", "post",
    "writeback", "fetch", "save", "store-acts", "program-weights",
    "pipe", "stream weights", "program weights", "sync reload",
    "drain", "exit",
};
static_assert(std::size(kVerbNames) == std::size_t(Verb::Exit) + 1);

} // namespace

NameId
addName(Program &p, std::string name)
{
    inca_assert(p.names.size() < kNoName,
                "program '%s' has too many names", p.network.c_str());
    p.names.push_back(std::move(name));
    return NameId(p.names.size() - 1);
}

std::string
operandName(const Program &p, Operand o)
{
    return std::string(kRoleNames[std::size_t(o.role)]) + "." +
           p.names[o.name];
}

std::string
labelText(const Program &p, Label l)
{
    std::string text = kVerbNames[std::size_t(l.verb)];
    if (l.name != kNoName)
        text += " " + p.names[l.name];
    return text;
}

bool
unitByName(const std::string &name, Unit &out)
{
    for (int u = 0; u <= int(Unit::Ctrl); ++u) {
        if (name == unitName(Unit(u))) {
            out = Unit(u);
            return true;
        }
    }
    return false;
}

Seconds
spanLatency(const Program &p, const Span &span)
{
    // Longest dependency chain inside the span; dependencies that
    // reach outside the span (inter-span wiring) are scheduling
    // context, not part of the layer's own busy time. finish = (max
    // of dep finishes) + duration keeps every addition a single IEEE
    // operation, so the chain folds exactly like the engine formulas
    // it replaces (max(a + c, b + c) == max(a, b) + c).
    inca_assert(span.count <= kMaxSpanInstrs,
                "span '%s' holds %d instructions (at most %d)",
                span.name.c_str(), span.count, kMaxSpanInstrs);
    std::array<Seconds, kMaxSpanInstrs> finish{};
    Seconds latest = 0.0;
    for (int i = 0; i < span.count; ++i) {
        const Instr &in = p.instrs[std::size_t(span.first + i)];
        Seconds start = 0.0;
        for (const int d : in.deps) {
            if (d < span.first || d >= span.first + span.count)
                continue;
            start = std::max(start,
                             finish[std::size_t(d - span.first)]);
        }
        finish[std::size_t(i)] = start + in.duration;
        latest = std::max(latest, finish[std::size_t(i)]);
    }
    return latest;
}

arch::LayerCost
collapseSpan(const Program &p, const Span &span)
{
    arch::LayerCost cost;
    cost.name = span.name;
    cost.kind = span.kind;
    for (int i = 0; i < span.count; ++i)
        cost.stats += p.instrs[std::size_t(span.first + i)].stats;
    cost.latency = spanLatency(p, span);
    return cost;
}

arch::RunCost
analyticWalk(const Program &p)
{
    arch::RunCost run;
    run.network = p.network;
    run.phase = p.phase;
    run.batchSize = p.batchSize;
    run.configKeyHash = p.configKeyHash;
    run.layers.reserve(p.spans.size());
    for (const Span &span : p.spans) {
        if (span.synthetic) {
            run.latency += spanLatency(p, span);
            continue;
        }
        run.layers.push_back(collapseSpan(p, span));
        if (!span.offCritical)
            run.latency += run.layers.back().latency;
    }
    run.staticEnergy = p.idlePower * run.latency;
    return run;
}

void
validate(const Program &p)
{
    const int n = int(p.instrs.size());
    inca_assert(n >= 1, "program '%s' is empty", p.network.c_str());
    const Instr &exit = p.instrs.back();
    inca_assert(exit.op == Op::Sync && exit.label.verb == Verb::Exit,
                "program '%s' must end with the exit sync",
                p.network.c_str());

    // Spans partition [0, n-1) in order; the exit sync stands alone.
    int next = 0;
    for (const Span &span : p.spans) {
        inca_assert(span.first == next && span.count > 0 &&
                        span.count <= kMaxSpanInstrs,
                    "span '%s' breaks the partition at %d",
                    span.name.c_str(), next);
        next = span.first + span.count;
    }
    inca_assert(next == n - 1,
                "spans cover %d of %d instructions", next, n - 1);

    // Live tensors, one bit per (role, name) pair.
    const std::size_t names = p.names.size();
    std::vector<bool> live(std::size_t(kRoleCount) * names);
    const auto slot = [&](Operand o) {
        inca_assert(o.name < names, "operand name %d is not in '%s'",
                    int(o.name), p.network.c_str());
        return std::size_t(o.role) * names + o.name;
    };
    for (const Operand in : p.inputs)
        live[slot(in)] = true;
    for (int i = 0; i < n; ++i) {
        const Instr &in = p.instrs[std::size_t(i)];
        inca_assert(std::isfinite(in.duration) && in.duration >= 0.0,
                    "instr %d '%s' has bad duration", i,
                    labelText(p, in.label).c_str());
        for (std::size_t a = 0; a < in.deps.size(); ++a) {
            const int d = in.deps[a];
            inca_assert(d >= 0 && d < i,
                        "instr %d '%s' depends forward on %d "
                        "(cycle/deadlock)",
                        i, labelText(p, in.label).c_str(), d);
            for (std::size_t b = 0; b < a; ++b)
                inca_assert(in.deps[b] != d,
                            "instr %d '%s' lists dep %d twice", i,
                            labelText(p, in.label).c_str(), d);
        }
        // Tensors must be produced before use, in program order
        // (loads stream concurrently with the consumer, so program
        // order, not dependency order, is the visibility rule).
        for (const Operand r : in.reads)
            inca_assert(live[slot(r)],
                        "instr %d '%s' reads '%s' before any write",
                        i, labelText(p, in.label).c_str(),
                        operandName(p, r).c_str());
        for (const Operand w : in.writes)
            live[slot(w)] = true;
    }
}

std::string
disassemble(const Program &p)
{
    std::ostringstream os;
    os << "program " << p.engine << "." << p.network << "."
       << (p.phase == arch::Phase::Training ? "training"
                                            : "inference")
       << " batch=" << p.batchSize
       << " overlap=" << (p.overlap ? 1 : 0) << "\n";
    os << "inputs:";
    for (const Operand in : p.inputs)
        os << " " << operandName(p, in);
    os << "\n";
    std::size_t span = 0;
    for (int i = 0; i < int(p.instrs.size()); ++i) {
        while (span < p.spans.size() &&
               p.spans[span].first == i) {
            const Span &s = p.spans[span];
            os << "span " << s.name << " kind="
               << int(s.kind)
               << (s.synthetic ? " synthetic" : "")
               << (s.offCritical ? " off-critical" : "") << "\n";
            ++span;
        }
        const Instr &in = p.instrs[std::size_t(i)];
        os << "  [" << i << "] " << opName(in.op) << " "
           << unitName(in.unit) << " dur=" << num17(in.duration)
           << " deps=(";
        for (std::size_t d = 0; d < in.deps.size(); ++d)
            os << (d ? "," : "") << in.deps[d];
        os << ")";
        if (!in.reads.empty()) {
            os << " reads=(";
            for (std::size_t r = 0; r < in.reads.size(); ++r)
                os << (r ? "," : "") << operandName(p, in.reads[r]);
            os << ")";
        }
        if (!in.writes.empty()) {
            os << " writes=(";
            for (std::size_t w = 0; w < in.writes.size(); ++w)
                os << (w ? "," : "") << operandName(p, in.writes[w]);
            os << ")";
        }
        if (in.label.verb != Verb::None)
            os << " ; " << labelText(p, in.label);
        os << "\n";
    }
    return os.str();
}

} // namespace ir
} // namespace inca
