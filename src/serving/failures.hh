/**
 * @file
 * Failure injection and client-robustness policy types for the
 * serving simulator.
 *
 * FailureSpec describes a seeded per-server failure process: times to
 * fail are exponential around an MTBF, repairs exponential around an
 * MTTR, and each event is either a fail-stop (the server goes down,
 * in-flight batches die) or a degradation (the server keeps serving,
 * slowed by a factor) with probability degradedFraction. Every draw
 * comes from a per-server SplitMix64 stream derived from the spec
 * seed, so adding a replica never perturbs the failure trace of an
 * existing one -- the property behind the availability-monotonicity
 * guarantee the tests pin.
 *
 * The health state machine a server walks:
 *
 *   Up ---fail(stop)---> Down ---repair---> Recovering ---> Up
 *   Up ---fail(slow)---> Degraded ---------recover--------> Up
 *
 * Up and Degraded servers accept batches (Degraded ones serve
 * slowdownFactor times slower); Down and Recovering ones do not.
 * Recovering models the weight-reload window after a repair.
 *
 * RetryPolicy is the client side: a bounded retry budget with
 * exponential backoff and deterministic jitter (one SplitMix64 draw
 * per (request, attempt), order-independent by construction).
 *
 * Aging couples failures to device wear: each completed repair scales
 * the next expected time-to-fail by the aging factor, so failure
 * rates rise over simulated lifetime. failureSpecFromEndurance()
 * derives the starting MTBF from an arch::EnduranceReport -- the
 * wear model that already knows IS rewrites its activation cells
 * every iteration while WS mostly rests.
 */

#ifndef INCA_SERVING_FAILURES_HH
#define INCA_SERVING_FAILURES_HH

#include <cstdint>
#include <string>

#include "arch/endurance.hh"
#include "common/units.hh"

namespace inca {
namespace serving {

/** Per-server failure process (disabled by default). */
struct FailureSpec
{
    bool enabled = false;
    Seconds mtbfS = 0.0; ///< mean time between failures, per server
    Seconds mttrS = 0.0; ///< mean time to repair (or to recover speed)
    /** Probability a failure is a slowdown instead of a fail-stop. */
    double degradedFraction = 0.0;
    /** Degraded-mode service-time multiplier (>= 1). */
    double slowdownFactor = 4.0;
    /** Post-repair weight-reload window (the Recovering state). */
    Seconds recoveryS = 0.0;
    /**
     * Wear acceleration: the k-th time-to-fail draw of a server is
     * scaled by aging^k, so repairs leave the array weaker. 1 = no
     * aging.
     */
    double aging = 1.0;
    std::uint64_t seed = 1;
    /** Kill in-flight requests on a fail-stop instead of re-enqueuing. */
    bool dropInFlight = false;
};

/** Most retries one request may make: the k-th backoff is
 *  base x 2^(k-1), computed in 64 bits. */
constexpr int kMaxRetryBudget = 64;

/** Client-side bounded retry with exponential backoff + jitter. */
struct RetryPolicy
{
    int budget = 0;             ///< max retries per request (0: none)
    Seconds backoffBaseS = 1e-3; ///< first backoff; doubles per retry
    double jitter = 0.5;        ///< uniform jitter fraction in [0, 1]
};

/** Server health states (see the file comment's state machine). */
enum class Health
{
    Up,
    Degraded,
    Down,
    Recovering,
};

/** "up", "degraded", "down", "recovering". */
const char *healthName(Health h);

/** Terminal outcome of one request. */
enum class RequestOutcome
{
    Ok,      ///< completed (within the deadline, when one is set)
    Shed,    ///< rejected by admission control, retries exhausted
    Timeout, ///< missed its deadline (queued, backed off, or served late)
    Failed,  ///< died with its server, retries exhausted
};

/** "ok", "shed", "timeout", "failed". */
const char *requestOutcomeName(RequestOutcome o);

/**
 * Parse a --failures value: "none" disables injection; otherwise
 * "mtbf:mttr[:degraded-frac[:slowdown]]" with duration spellings
 * ("200ms:50ms", "2s:100ms:0.3:8"). Fatal on malformed input (user
 * error, not a simulator bug).
 */
FailureSpec parseFailureSpec(const char *flag, const char *text);

/**
 * Parse a --retry value: "none" disables retries; otherwise
 * "budget:backoff[:jitter]" ("3:1ms", "5:500us:0.25"), with a budget
 * of at most kMaxRetryBudget. Fatal on malformed input.
 */
RetryPolicy parseRetrySpec(const char *flag, const char *text);

/**
 * Derive a failure process from device wear: the starting MTBF is the
 * endurance-rated lifetime (iterationsToWearOut at @p iterationsPerS
 * sustained training iterations per second) and aging defaults to
 * 0.9 -- a first-order model of each repair cycle restarting on
 * already-cycled cells. mttr/degraded/slowdown keep their defaults
 * and can be adjusted afterwards.
 */
FailureSpec failureSpecFromEndurance(const arch::EnduranceReport &er,
                                     double iterationsPerS,
                                     Seconds mttrS,
                                     std::uint64_t seed = 1);

} // namespace serving
} // namespace inca

#endif // INCA_SERVING_FAILURES_HH
