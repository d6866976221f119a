/**
 * @file
 * Virtual-time serving simulator: open-loop arrivals -> batching
 * scheduler -> replicated (possibly sharded) chip servers.
 *
 * The simulated clock is driven purely by event timestamps -- arrival
 * traces materialized up front (serving/arrivals.hh) and batch
 * service times from the cost model (serving/cost_model.hh).
 * Wall-clock time never enters, so a simulation is a pure function of
 * its spec: bit-identical at any thread count. The only parallel
 * phase is the pre-computation of the (stream, batch size) cost
 * table (CostTable), which fans out pure cost-model calls into
 * pre-sized slots before the serial event loop runs. A caller that
 * schedules the slots itself prices them and passes the table in.
 *
 * Scheduling policy: one FIFO queue per stream. A stream becomes
 * dispatchable when its queue reaches the batch-size cap or its head
 * request has waited the batch timeout. When a server is free, the
 * scheduler picks the dispatchable stream with the lowest priority
 * number (ties: oldest head request, then stream index) and dispatches
 * up to maxBatch requests from that stream only -- batches never mix
 * models. Each request's tick comes from the timeout cursor
 * (serving/event_queue.hh), so a drained arrival trace still flushes:
 * each queued request eventually ages past the timeout and leaves
 * with a recorded latency.
 *
 * Servers admit one batch per initiation interval and complete it
 * after the batch latency; completions on one server are clamped
 * monotone (a pipeline is FIFO -- a later small batch cannot overtake
 * an earlier large one). Energy = sum of per-batch dynamic + link
 * energy, plus idle power x total chips x makespan (chips leak
 * whether busy or not).
 *
 * Chaos layer (serving/failures.hh): when a FailureSpec is enabled,
 * servers walk the up/degraded/down/recovering health machine on
 * seeded per-server failure traces; a fail-stop kills the server's
 * in-flight batches, whose requests are re-enqueued at the front of
 * their stream queue (or dropped, per spec.failures.dropInFlight).
 * Client policies: a per-request deadline, bounded retry with
 * exponential backoff + deterministic jitter, and hedged dispatch
 * onto a second idle server once a batch head has waited past
 * spec.hedgeDelayS. Admission control: per-stream queues are bounded
 * by spec.queueCap (0 = unbounded), the arriving request is the one
 * shed, and under global overload (total backlog >= cap x streams)
 * only the highest-priority class is admitted. All chaos features
 * default off, in which case the event loop takes exactly the
 * original code paths -- the report and every export are
 * byte-identical to the pre-chaos simulator.
 *
 * Availability is measured over the offered-traffic window
 * [0, durationS]: the fraction of that window with at least one
 * server accepting work (Up or Degraded). Per-server failure streams
 * are independent, so availability is monotone non-decreasing in the
 * replica count by construction.
 */

#ifndef INCA_SERVING_SIMULATOR_HH
#define INCA_SERVING_SIMULATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "common/units.hh"
#include "serving/arrivals.hh"
#include "serving/cost_model.hh"
#include "serving/failures.hh"

namespace inca {
namespace serving {

/** One request class of the workload mix. */
struct StreamSpec
{
    std::string network = "vgg16"; ///< model zoo name
    double weight = 1.0;           ///< share of the arrival mix
    int priority = 0;              ///< lower dispatches first
};

/** Batch-forming policy (size cap OR head-of-line timeout). */
struct BatchPolicy
{
    int maxBatch = 8;
    Seconds timeoutS = 2e-3;
};

/** Everything that determines one serving simulation. */
struct ServingSpec
{
    bool incaEngine = true; ///< IS chip (false: WS baseline)
    arch::IncaConfig inca = arch::paperInca();
    arch::BaselineConfig ws = arch::paperBaseline();

    std::vector<StreamSpec> streams = {StreamSpec{}};
    ArrivalSpec arrivals;
    Seconds durationS = 1.0; ///< arrival-generation horizon

    int replicas = 1; ///< independent server groups
    ShardSpec shard;
    BatchPolicy batch;

    Seconds sloS = 0.0; ///< latency SLO; 0 disables goodput gating

    // -- Chaos layer; every default below means "off" and preserves
    //    the pre-chaos behavior byte-identically. -------------------
    FailureSpec failures;    ///< seeded per-server failure process
    RetryPolicy retry;       ///< client retry budget + backoff
    Seconds deadlineS = 0.0; ///< per-request deadline; 0 disables
    /** Hedge a batch onto a second idle server once its head has
     *  waited this long; 0 disables hedging. */
    Seconds hedgeDelayS = 0.0;
    /** Per-stream queue bound; arrivals to a full queue are shed.
     *  0 = unbounded (the original behavior). */
    std::uint64_t queueCap = 0;
};

/** True when any chaos feature (failures, retry, deadline, hedging,
 *  bounded queues) is active in @p spec. */
bool chaosEnabled(const ServingSpec &spec);

/** Per-request trace row (the --csv export). */
struct RequestRecord
{
    std::uint64_t id = 0;
    int stream = 0;
    int server = -1;
    int batchSize = 0;
    Seconds arrivalS = 0.0;
    Seconds dispatchS = 0.0;
    Seconds completionS = 0.0;

    // Chaos accounting (all zero / Ok on the chaos-off path).
    RequestOutcome outcome = RequestOutcome::Ok;
    int retries = 0;       ///< client retries performed
    bool hedged = false;   ///< dispatched on two servers at once
    Seconds queuedS = 0.0; ///< total time in queues, all attempts

    /** Dispatched to a server on some attempt; a shed request, or
     *  one reaped from its queue first, never is. */
    bool hasDispatch() const { return server >= 0; }
    /** Finished on a server (Ok, or served past its deadline). Shed,
     *  reaped and failed requests have none; service takes time, so
     *  a real completion is always > 0. */
    bool hasCompletion() const { return completionS > 0.0; }

    /** Meaningful only when hasCompletion(). */
    Seconds latencyS() const { return completionS - arrivalS; }
    /** Meaningful only when hasDispatch(). */
    Seconds waitS() const { return dispatchS - arrivalS; }
};

/** Per-server roll-up. */
struct ServerStats
{
    std::uint64_t batches = 0;
    std::uint64_t requests = 0;
    Seconds busyS = 0.0;      ///< sum of initiation intervals
    double utilization = 0.0; ///< busyS / makespan
    std::uint64_t failures = 0;      ///< failure events (both modes)
    std::uint64_t killedBatches = 0; ///< in-flight batches lost
    Seconds downS = 0.0; ///< time not accepting work (down+recovering)
};

/** Per-stream chaos counters. */
struct StreamStats
{
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t failed = 0;
    std::uint64_t retries = 0;
    std::uint64_t failovers = 0; ///< requests re-enqueued off a corpse
};

/** Everything one simulation produces. */
struct ServingReport
{
    ServingSpec spec; ///< echoed for the emitters

    std::uint64_t offered = 0;   ///< requests generated
    std::uint64_t completed = 0; ///< outcome Ok (== offered, chaos off)
    std::uint64_t withinSlo = 0; ///< completions meeting the SLO
    Seconds makespanS = 0.0;     ///< last completion time

    // Chaos roll-up (all zero / 1.0 on the chaos-off path).
    std::uint64_t shed = 0;     ///< admission rejections (terminal)
    std::uint64_t timedOut = 0; ///< deadline misses (terminal)
    std::uint64_t failed = 0;   ///< died with a server (terminal)
    std::uint64_t retries = 0;  ///< client retry attempts
    std::uint64_t hedges = 0;   ///< hedge legs dispatched
    std::uint64_t failovers = 0;     ///< requests re-enqueued
    std::uint64_t killedBatches = 0; ///< in-flight batches lost
    std::uint64_t failureEvents = 0; ///< failures injected (all modes)
    /** Fraction of [0, durationS] with >= 1 server accepting work. */
    double availability = 1.0;
    Seconds unavailableS = 0.0; ///< (1 - availability) * durationS
    std::vector<StreamStats> streamStats; ///< one per spec stream

    double offeredRatePerS = 0.0; ///< offered / duration
    double throughputRps = 0.0;   ///< completed / makespan
    double goodputRps = 0.0;      ///< withinSlo / makespan (SLO set)

    // Exact latency summary over every completed request.
    Seconds meanLatencyS = 0.0;
    Seconds p50S = 0.0, p95S = 0.0, p99S = 0.0;
    Seconds maxLatencyS = 0.0;
    Seconds meanWaitS = 0.0;

    double meanQueueDepth = 0.0; ///< time-averaged over [0, makespan]
    std::uint64_t maxQueueDepth = 0;
    std::uint64_t batches = 0;
    double meanBatchSize = 0.0;
    double utilization = 0.0; ///< mean server busy fraction

    Joules dynamicEnergyJ = 0.0; ///< compute + link, all batches
    Joules staticEnergyJ = 0.0;  ///< idle power x chips x makespan
    Joules energyJ = 0.0;
    Joules energyPerRequestJ = 0.0;

    std::vector<ServerStats> servers;
    std::vector<RequestRecord> requests; ///< in arrival order
    /** (time, waiting requests) at every depth change. */
    std::vector<std::pair<Seconds, std::uint64_t>> queueTimeline;
};

/**
 * Exact nearest-rank percentile of @p samples for @p q in (0, 100];
 * 0 when empty. The reference percentile the report and the metrics
 * histograms agree on.
 */
double exactPercentile(std::vector<double> samples, double q);

/**
 * A spec's (stream, batch size) cost table: one slot per stream and
 * batch size 1..maxBatch, stream-major, so slot
 * stream * maxBatch + batch - 1 holds the cost of a batch of that
 * size from that stream. Each slot is one pure cost-model call, and
 * price() writes only its own slot, so distinct slots may be priced
 * concurrently in any order and the table comes out the same.
 */
class CostTable
{
  public:
    explicit CostTable(const ServingSpec &spec);

    /** Slots in the table (streams x maxBatch). */
    std::size_t size() const { return costs_.size(); }

    /** Price slot @p slot. */
    void price(std::size_t slot);

    /** The priced cost of a @p batch -request batch of @p stream. */
    const BatchCost &cost(int stream, int batch) const
    {
        return costs_[std::size_t(stream) * std::size_t(maxBatch_) +
                      std::size_t(batch - 1)];
    }

    const BatchCostModel &model() const { return model_; }

  private:
    BatchCostModel model_;
    std::vector<nn::NetworkDesc> nets_; ///< one per stream
    int maxBatch_;
    std::vector<BatchCost> costs_;
};

/**
 * Run one simulation (pure; see file comment), pricing its cost
 * table across the pool first.
 */
ServingReport simulate(const ServingSpec &spec);

/**
 * Run one simulation on @p table, built from @p spec and priced in
 * every slot: simulate(spec) without its pricing phase, and
 * bit-identical to it.
 */
ServingReport simulate(const ServingSpec &spec, const CostTable &table);

} // namespace serving
} // namespace inca

#endif // INCA_SERVING_SIMULATOR_HH
