/**
 * @file
 * The benchmark's three driver-level workloads. An operation mirrors
 * one driver invocation with its documented export flags, artifacts
 * built in memory; the traced run additionally times component calls
 * on the operation's own inputs (the per-layer decomposition).
 */

#ifndef INCA_BENCH_E2E_WORKLOADS_HH
#define INCA_BENCH_E2E_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.hh"

namespace inca {
namespace bench {

/** What one operation produced. */
struct OpResult
{
    double work = 0.0; ///< work units done (see Workload::workUnit)
    /** (artifact, FNV-1a digest) in emission order; provenance
     *  manifests are stripped before hashing. */
    std::vector<std::pair<std::string, std::uint64_t>> artifacts;
    std::vector<std::string> errors; ///< failed output checks

    /** Digest over every artifact digest, in order. */
    std::uint64_t digest() const;
};

/** Per-layer metric values of the traced run: name -> value. */
using LayerMetrics = std::map<std::string, double>;

/** Name and unit of every per-layer metric, in report order. */
const std::vector<std::pair<std::string, std::string>> &
layerMetricDefs();

/** Wall times of the traced run's whole-operation passes [s]. */
struct OpTimes
{
    double plain = 0.0;    ///< untraced, N lanes, caches on
    double traced = 0.0;   ///< traced, N lanes, caches on
    double oneLane = 0.0;  ///< traced, 1 lane, caches on
    double cacheOff = 0.0; ///< traced, N lanes, caches off
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** The work unit work_per_s counts. */
    virtual const char *workUnit() const = 0;

    /**
     * Run one operation: the program calls only, outputs kept for
     * verify(). With @p spans non-null, every call into a layer's
     * public entry point is wrapped in a span of op @p op.
     */
    virtual void operation(SpanRecorder *spans, int op) = 0;

    /**
     * Check and digest the last operation's outputs, then release
     * them, so neither the checks nor the freeing fall inside the
     * timed operation.
     */
    virtual OpResult verify() = 0;

    /**
     * Traced run only: time component calls on the inputs of the
     * last operation and fill the workload's per-layer metrics.
     * @p tracedOp is the op id of the traced N-lane operation;
     * @p lanes the pool width to restore after 1-lane passes.
     * Returns messages for any cross-check that failed.
     */
    virtual std::vector<std::string>
    decompose(SpanRecorder &spans, int tracedOp, const OpTimes &times,
              int lanes, LayerMetrics &out) = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name from @p seed; nullptr for unknown names. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

} // namespace bench
} // namespace inca

#endif // INCA_BENCH_E2E_WORKLOADS_HH
