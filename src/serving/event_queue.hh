/**
 * @file
 * The serving simulator's event source (internal to
 * serving/simulator.cc; the tests include it to pin its order).
 *
 * Events pop in (t, kind, seq) order: the earliest time first, then
 * the lowest kind, then the earliest push. They come from two
 * sources:
 *
 * - Three cursors over the sorted arrival trace, one per request
 *   event kind: the arrival (arrivals[i]), the batch-timeout tick
 *   (arrivals[i] + timeoutS) and the deadline (arrivals[i] +
 *   deadlineS, only when deadlineS > 0). x -> x + c is monotone
 *   under round-to-nearest, so each cursor is already in (t, index)
 *   order, which is the order their up-front pushes had.
 * - A binary heap for the events the loop creates while it runs:
 *   server-ready, completion, fail, repair, up and retry.
 *
 * The cursors and the heap never share a kind, and no two cursors
 * share one, so a time tie between sources is always broken by kind
 * and seq is only ever compared inside the heap. pop() therefore
 * returns exactly the order one heap holding every event would.
 */

#ifndef INCA_SERVING_EVENT_QUEUE_HH
#define INCA_SERVING_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <queue>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"

namespace inca {
namespace serving {

/**
 * One event. Kind breaks timestamp ties; seq breaks kind ties.
 * Kinds 0-2 are the original (chaos-off) machinery; 3+ only occur
 * when a chaos feature needs them, except completions (kind 3),
 * which are always scheduled but are pure finalizers -- they change
 * no scheduler-visible state, so their presence keeps the chaos-off
 * event stream's observable behavior identical.
 */
struct Ev
{
    Seconds t = 0.0;
    int kind = 0; ///< 0 server-ready, 1 arrival, 2 timeout,
                  ///< 3 completion, 4 fail, 5 repair, 6 up,
                  ///< 7 deadline, 8 retry
    std::uint64_t seq = 0;
    std::uint64_t payload = 0;
};

/** Heap order: the later (t, kind, seq) sorts first. */
struct EvLater
{
    bool operator()(const Ev &a, const Ev &b) const
    {
        if (a.t != b.t)
            return a.t > b.t;
        if (a.kind != b.kind)
            return a.kind > b.kind;
        return a.seq > b.seq;
    }
};

constexpr int kEvServerReady = 0;
constexpr int kEvArrival = 1;
constexpr int kEvTimeout = 2;
constexpr int kEvCompletion = 3;
constexpr int kEvFail = 4;
constexpr int kEvRepair = 5;
constexpr int kEvUp = 6;
constexpr int kEvDeadline = 7;
constexpr int kEvRetry = 8;

/** Request events from sorted cursors, run-time events from a heap
 *  (see the file comment). The payload of a request event is the
 *  request's index in @p arrivals. */
class EventQueue
{
  public:
    /** @p arrivals must be sorted and outlive the queue. */
    EventQueue(const std::vector<Seconds> &arrivals, Seconds timeoutS,
               Seconds deadlineS)
        : arrivals_(arrivals),
          // Without a deadline the deadline cursor starts exhausted.
          cursors_{{{0.0, kEvArrival, 0},
                    {timeoutS, kEvTimeout, 0},
                    {deadlineS, kEvDeadline,
                     deadlineS > 0.0 ? 0 : arrivals.size()}}}
    {
        inca_assert(std::is_sorted(arrivals.begin(), arrivals.end()),
                    "arrival trace is not sorted");
    }

    bool
    empty() const
    {
        if (!heap_.empty())
            return false;
        for (const Cursor &cur : cursors_)
            if (cur.next < arrivals_.size())
                return false;
        return true;
    }

    /** Remove and return the least (t, kind, seq) event. */
    Ev
    pop()
    {
        Cursor *from = nullptr; // null: the heap top
        Ev best;
        bool found = !heap_.empty();
        if (found)
            best = heap_.top();
        for (Cursor &cur : cursors_) {
            if (cur.next == arrivals_.size())
                continue;
            const Seconds t = arrivals_[cur.next] + cur.offsetS;
            if (!found || t < best.t ||
                (t == best.t && cur.kind < best.kind)) {
                from = &cur;
                best = Ev{t, cur.kind, 0, cur.next};
                found = true;
            }
        }
        inca_assert(found, "pop from an empty event queue");
        if (from)
            ++from->next;
        else
            heap_.pop();
        return best;
    }

    /** Schedule a run-time event; seq is assigned in push order. */
    void
    push(Seconds t, int kind, std::uint64_t payload)
    {
        inca_assert(kind != kEvArrival && kind != kEvTimeout &&
                        kind != kEvDeadline,
                    "request event kind %d comes from a cursor", kind);
        heap_.push(Ev{t, kind, seq_++, payload});
    }

  private:
    /** Walks arrivals_ in order, yielding arrivals_[next] + offsetS. */
    struct Cursor
    {
        Seconds offsetS = 0.0;
        int kind = 0;
        std::size_t next = 0;
    };

    const std::vector<Seconds> &arrivals_;
    std::array<Cursor, 3> cursors_;
    std::priority_queue<Ev, std::vector<Ev>, EvLater> heap_;
    std::uint64_t seq_ = 0;
};

} // namespace serving
} // namespace inca

#endif // INCA_SERVING_EVENT_QUEUE_HH
