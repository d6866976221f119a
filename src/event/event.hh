/**
 * @file
 * Event-driven execution of lowered IR programs.
 *
 * A deterministic discrete-event simulator: each instruction becomes
 * ready when all its dependencies have finished, runs for its lowered
 * duration on its unit, and posts a completion event; a priority
 * queue ordered by (finish time, instruction index) drains the
 * program. All timing flows through the explicit dependencies the
 * lowering emitted -- units impose no implicit serialization (the
 * analytic cost model treats each unit as pipelined/abundant, and the
 * bit-exactness contract with the analytic walk requires the event
 * schedule to fold the very same IEEE additions). Per-unit busy
 * intervals are recorded from the schedule for occupancy reporting
 * and trace export; intervals of off-critical (posted) work may
 * overlap and may extend past the makespan -- the analysis layer
 * (event/analysis.hh) reports that tail explicitly as per-unit
 * `overhang` seconds and never counts it toward utilization, whose
 * denominator is always the makespan.
 *
 * The makespan is the finish time of the program's exit sync. With
 * overlap-off wiring this folds to exactly the analytic engines'
 * latency (tests/test_event_backend.cc asserts 0 ULP); overlap-on
 * wiring only relaxes dependencies, so the makespan can only shrink
 * while the charged stats -- and thus dynamic energy -- are identical.
 */

#ifndef INCA_EVENT_EVENT_HH
#define INCA_EVENT_EVENT_HH

#include <array>
#include <span>
#include <vector>

#include "arch/cost.hh"
#include "ir/ir.hh"

namespace inca {
namespace event {

/**
 * Every instruction's successors (the instructions that list it as a
 * dependency), as one flat table: offsets plus one list.
 */
class Successors
{
  public:
    explicit Successors(const ir::Program &p);

    /** The successors of instruction @p i, ascending. */
    std::span<const int>
    of(int i) const
    {
        return {list_.data() + offsets_[std::size_t(i)],
                list_.data() + offsets_[std::size_t(i) + 1]};
    }

  private:
    std::vector<int> offsets_; ///< instruction count + 1
    std::vector<int> list_;
};

/** Scheduled start/finish of one instruction. */
struct TimedInstr
{
    Seconds start = 0.0;
    Seconds finish = 0.0;
};

/** One occupancy interval on a unit. */
struct BusyInterval
{
    int instr = 0; ///< instruction index
    Seconds start = 0.0;
    Seconds finish = 0.0;
};

/** Result of executing a program on the event backend. */
struct TimedRun
{
    /**
     * The analytic-compatible summary: per-layer costs collapsed from
     * the spans (identical to the analytic walk by construction) with
     * run latency = event makespan and static energy = idle power x
     * makespan.
     */
    arch::RunCost run;
    /** Per-instruction schedule, aligned with program.instrs. */
    std::vector<TimedInstr> schedule;
    /**
     * Busy intervals per unit, indexed by ir::Unit, each ordered by
     * (start, instr); empty for a unit that ran no work.
     */
    std::array<std::vector<BusyInterval>, ir::kUnitCount> busy;
    /** Finish time of the exit sync. */
    Seconds makespan = 0.0;
};

/** Execute @p p. Deterministic: same program, same schedule. */
TimedRun execute(const ir::Program &p);

/**
 * Emit the schedule as a Chrome trace at simulated time (microsecond
 * granularity) when INCA_TRACE is active; no-op otherwise. Work
 * instructions become complete ('X') spans; sync instructions become
 * zero-cost instant events (the exit sync doubling as a "makespan"
 * marker); consecutive work steps of the critical path are linked
 * with flow arrows; and an "event.ready_queue" counter series tracks
 * how many work instructions are in flight at each schedule time.
 */
void emitTrace(const ir::Program &p, const TimedRun &t);

} // namespace event
} // namespace inca

#endif // INCA_EVENT_EVENT_HH
