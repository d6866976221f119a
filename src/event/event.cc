#include "event/event.hh"

#include "event/analysis.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/trace.hh"

namespace inca {
namespace event {

Successors::Successors(const ir::Program &p)
{
    const std::size_t n = p.instrs.size();
    // Count each instruction's successors, turn the counts into start
    // offsets, then fill in program order, so each list ascends.
    offsets_.assign(n + 1, 0);
    for (const ir::Instr &in : p.instrs)
        for (const int d : in.deps)
            ++offsets_[std::size_t(d) + 1];
    for (std::size_t i = 0; i < n; ++i)
        offsets_[i + 1] += offsets_[i];
    list_.resize(std::size_t(offsets_[n]));
    for (std::size_t i = 0; i < n; ++i)
        for (const int d : p.instrs[i].deps)
            list_[std::size_t(offsets_[std::size_t(d)]++)] = int(i);
    // Filling advanced offsets_[d] to the start of d + 1.
    for (std::size_t i = n; i > 0; --i)
        offsets_[i] = offsets_[i - 1];
    offsets_[0] = 0;
}

TimedRun
execute(const ir::Program &p)
{
    const int n = int(p.instrs.size());
    inca_assert(n >= 1, "empty program '%s'", p.network.c_str());

    TimedRun t;
    t.schedule.resize(std::size_t(n));

    const Successors succ(p);
    std::vector<int> indeg(std::size_t(n), 0);
    for (int i = 0; i < n; ++i)
        indeg[std::size_t(i)] = int(p.instrs[std::size_t(i)].deps.size());

    // Until an instruction dispatches, its schedule start holds the
    // max finish over its resolved dependencies. Taking the running
    // max (never a sum) keeps the schedule's arithmetic the exact
    // additions of the lowered durations, independent of event pop
    // order -- max is order-independent, unlike FP addition.
    using Event = std::pair<Seconds, int>; // (finish, instr)
    std::vector<Event> heap;
    heap.reserve(std::size_t(n));
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        queue(std::greater<Event>(), std::move(heap));
    int dispatched = 0;
    for (int i = 0; i < n; ++i) {
        if (indeg[std::size_t(i)] == 0) {
            t.schedule[std::size_t(i)] = {
                0.0, p.instrs[std::size_t(i)].duration};
            queue.emplace(t.schedule[std::size_t(i)].finish, i);
            ++dispatched;
        }
    }

    int completed = 0;
    while (!queue.empty()) {
        const auto [finish, i] = queue.top();
        queue.pop();
        ++completed;
        for (const int s : succ.of(i)) {
            TimedInstr &slot = t.schedule[std::size_t(s)];
            slot.start = std::max(slot.start, finish);
            if (--indeg[std::size_t(s)] == 0) {
                slot.finish =
                    slot.start + p.instrs[std::size_t(s)].duration;
                queue.emplace(slot.finish, s);
                ++dispatched;
            }
        }
    }
    inca_assert(completed == n && dispatched == n,
                "deadlock in '%s': %d of %d instructions ran",
                p.network.c_str(), completed, n);

    // The exit sync is the last instruction by construction.
    t.makespan = t.schedule[std::size_t(n - 1)].finish;

    // Collapse spans through the same shared code path the analytic
    // walk uses -- never as schedule-time differences, which would not
    // be bit-exact ((t + x) - t != x in floating point).
    t.run.network = p.network;
    t.run.phase = p.phase;
    t.run.batchSize = p.batchSize;
    t.run.configKeyHash = p.configKeyHash;
    t.run.layers.reserve(p.spans.size());
    for (const ir::Span &span : p.spans) {
        if (span.synthetic)
            continue;
        t.run.layers.push_back(ir::collapseSpan(p, span));
    }
    t.run.latency = t.makespan;
    t.run.staticEnergy = p.idlePower * t.makespan;

    // Busy intervals per unit, ordered by (start, instr); sync
    // instructions occupy nothing.
    std::array<std::size_t, ir::kUnitCount> work{};
    for (const ir::Instr &in : p.instrs)
        if (in.op != ir::Op::Sync)
            ++work[std::size_t(in.unit)];
    for (int u = 0; u < ir::kUnitCount; ++u)
        t.busy[std::size_t(u)].reserve(work[std::size_t(u)]);
    for (int i = 0; i < n; ++i) {
        const ir::Instr &in = p.instrs[std::size_t(i)];
        if (in.op != ir::Op::Sync)
            t.busy[std::size_t(in.unit)].push_back(
                {i, t.schedule[std::size_t(i)].start,
                 t.schedule[std::size_t(i)].finish});
    }
    for (std::vector<BusyInterval> &intervals : t.busy)
        std::sort(intervals.begin(), intervals.end(),
                  [](const BusyInterval &a, const BusyInterval &b) {
                      if (a.start != b.start)
                          return a.start < b.start;
                      return a.instr < b.instr;
                  });
    return t;
}

void
emitTrace(const ir::Program &p, const TimedRun &t)
{
    if (!trace::enabled())
        return;
    const auto us = [](Seconds s) {
        return std::int64_t(std::llround(s * 1e6));
    };
    for (int i = 0; i < int(p.instrs.size()); ++i) {
        const ir::Instr &in = p.instrs[std::size_t(i)];
        const std::string name =
            std::string(ir::unitName(in.unit)) + " " +
            (in.label.verb == ir::Verb::None
                 ? std::string(ir::opName(in.op))
                 : ir::labelText(p, in.label));
        if (in.op == ir::Op::Sync) {
            // Joins cost nothing but show where chains meet.
            trace::emitInstant(name,
                               us(t.schedule[std::size_t(i)].start));
            continue;
        }
        const std::int64_t start =
            us(t.schedule[std::size_t(i)].start);
        const std::int64_t dur =
            us(t.schedule[std::size_t(i)].finish) - start;
        trace::emitComplete(name, start, dur);
    }
    trace::emitInstant("makespan", us(t.makespan));

    // Flow arrows between consecutive work steps of the critical
    // path, so the chain that sets the makespan reads as one line in
    // the viewer.
    AnalyzeOptions opts;
    opts.runWhatIf = false;
    const Report r = analyze(p, t, opts);
    std::uint64_t flowId = 1;
    int prev = -1;
    for (const PathStep &step : r.path) {
        if (p.instrs[std::size_t(step.instr)].op == ir::Op::Sync)
            continue;
        if (prev >= 0)
            trace::emitFlow("critical", flowId++,
                            us(t.schedule[std::size_t(prev)].finish),
                            us(step.start));
        prev = step.instr;
    }

    // Ready-queue depth: work instructions in flight per schedule
    // time (one counter sample per distinct microsecond timestamp).
    std::vector<std::pair<std::int64_t, int>> deltas;
    for (int i = 0; i < int(p.instrs.size()); ++i) {
        if (p.instrs[std::size_t(i)].op == ir::Op::Sync)
            continue;
        deltas.push_back({us(t.schedule[std::size_t(i)].start), +1});
        deltas.push_back({us(t.schedule[std::size_t(i)].finish), -1});
    }
    std::sort(deltas.begin(), deltas.end());
    int depth = 0;
    for (std::size_t i = 0; i < deltas.size(); ++i) {
        depth += deltas[i].second;
        if (i + 1 == deltas.size() ||
            deltas[i + 1].first != deltas[i].first)
            trace::counterAt("event.ready_queue", deltas[i].first,
                             double(depth));
    }
}

} // namespace event
} // namespace inca
