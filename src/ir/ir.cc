#include "ir/ir.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

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
    std::vector<Seconds> finish(std::size_t(span.count), 0.0);
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
    inca_assert(exit.op == Op::Sync && exit.label == "exit",
                "program '%s' must end with the exit sync",
                p.network.c_str());

    // Spans partition [0, n-1) in order; the exit sync stands alone.
    int next = 0;
    for (const Span &span : p.spans) {
        inca_assert(span.first == next && span.count > 0,
                    "span '%s' breaks the partition at %d",
                    span.name.c_str(), next);
        next = span.first + span.count;
    }
    inca_assert(next == n - 1,
                "spans cover %d of %d instructions", next, n - 1);

    std::set<std::string> live(p.inputs.begin(), p.inputs.end());
    for (int i = 0; i < n; ++i) {
        const Instr &in = p.instrs[std::size_t(i)];
        inca_assert(std::isfinite(in.duration) && in.duration >= 0.0,
                    "instr %d '%s' has bad duration", i,
                    in.label.c_str());
        std::set<int> seen;
        for (const int d : in.deps) {
            inca_assert(d >= 0 && d < i,
                        "instr %d '%s' depends forward on %d "
                        "(cycle/deadlock)",
                        i, in.label.c_str(), d);
            inca_assert(seen.insert(d).second,
                        "instr %d '%s' lists dep %d twice", i,
                        in.label.c_str(), d);
        }
        // Tensors must be produced before use, in program order
        // (loads stream concurrently with the consumer, so program
        // order, not dependency order, is the visibility rule).
        for (const std::string &r : in.reads)
            inca_assert(live.count(r) != 0,
                        "instr %d '%s' reads '%s' before any write",
                        i, in.label.c_str(), r.c_str());
        for (const std::string &w : in.writes)
            live.insert(w);
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
    for (const std::string &in : p.inputs)
        os << " " << in;
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
                os << (r ? "," : "") << in.reads[r];
            os << ")";
        }
        if (!in.writes.empty()) {
            os << " writes=(";
            for (std::size_t w = 0; w < in.writes.size(); ++w)
                os << (w ? "," : "") << in.writes[w];
            os << ")";
        }
        if (!in.label.empty())
            os << " ; " << in.label;
        os << "\n";
    }
    return os.str();
}

} // namespace ir
} // namespace inca
