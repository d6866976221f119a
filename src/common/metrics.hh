/**
 * @file
 * Process-wide metrics registry: monotonic counters, gauges, and
 * power-of-two histograms.
 *
 * Every subsystem that wants an always-on number registers it here by
 * name ("dse.scored", "pool.task_wait_us", "dse.eval_us") and keeps
 * the returned reference; updates are relaxed atomics, cheap enough
 * to leave enabled in every build. The registry times nothing itself:
 * the wall clock of a scope is a trace::Span's job, and a histogram
 * only buckets durations its caller has already measured (a pool
 * job's queue wait, a memo miss's scoring time). Two renderers
 * consume the registry: sim::printPhaseTimes appends a human-readable
 * section to its report, and toJson() serializes everything for
 * machines. With INCA_METRICS=<path> set, an atexit handler writes
 * toJson() to the path -- no driver changes needed, and nothing is
 * printed to stdout/stderr, so driver stdout stays byte-identical
 * whether or not metrics are exported.
 *
 * Registered metrics live forever (the registry is leaked on
 * purpose); a name permanently denotes one metric of one kind, and
 * re-requesting it returns the same object. reset()/resetAll() zero
 * values without unregistering (test isolation).
 */

#ifndef INCA_COMMON_METRICS_HH
#define INCA_COMMON_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace inca {
namespace metrics {

/** Monotonically increasing event count. */
class Counter
{
  public:
    explicit Counter(std::string name) : name_(std::move(name)) {}

    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written (or accumulated) level of some quantity. */
class Gauge
{
  public:
    explicit Gauge(std::string name) : name_(std::move(name)) {}

    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    void add(double v)
    {
        value_.fetch_add(v, std::memory_order_relaxed);
    }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::atomic<double> value_{0.0};
};

/**
 * Power-of-two microsecond histogram: bucket i counts observations
 * <= bound(i) = 2^i us, with one extra overflow bucket past 2^25 us
 * (~34 s); sum and count track the exact totals. No sample is kept,
 * so memory is fixed and observe() is a short scan plus relaxed
 * increments -- safe from any pool thread. Read as a quantile sketch,
 * the buckets place any percentile within a factor of 2; exact
 * percentiles belong to the owner of the samples (the serving
 * report).
 */
class Histogram
{
  public:
    /** Finite bucket bounds: 1, 2, 4, ..., 2^25 us. */
    static constexpr std::size_t kBounds = 26;

    explicit Histogram(std::string name) : name_(std::move(name)) {}

    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    /** Upper bound of bucket @p i < kBounds, in microseconds. */
    static constexpr double bound(std::size_t i)
    {
        return double(std::uint64_t(1) << i);
    }

    void observe(double v);

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    /** sum / count; 0 when empty. */
    double mean() const
    {
        const std::uint64_t n = count();
        return n == 0 ? 0.0 : sum() / double(n);
    }

    /** Per-bucket counts; size kBounds + 1 (overflow last). */
    std::vector<std::uint64_t> bucketCounts() const;

    void reset();

    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::array<std::atomic<std::uint64_t>, kBounds + 1> buckets_;
    std::atomic<double> sum_{0.0};
    std::atomic<std::uint64_t> count_{0};
};

/**
 * The registered metric named @p name, created on first request.
 * Requesting an existing name as a different kind is a simulator bug
 * (panics).
 */
Counter &counter(const std::string &name);
Gauge &gauge(const std::string &name);
Histogram &histogram(const std::string &name);

/**
 * Serialize every registered metric:
 * {"counters": {...}, "gauges": {...},
 *  "histograms": {name: {count, sum, buckets: [{le, count}...]}}}.
 */
std::string toJson();

/**
 * Human-readable dump of every metric with data. Used by
 * sim::printPhaseTimes.
 */
void printText(std::FILE *out);

/** Zero every registered metric (test isolation). */
void resetAll();

} // namespace metrics
} // namespace inca

#endif // INCA_COMMON_METRICS_HH
