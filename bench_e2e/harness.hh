/**
 * @file
 * Building blocks of the end-to-end benchmark harness: sample
 * statistics, clocks and the host-speed probe, a strict JSON reader,
 * output digests, the span recorder behind the traced run, and the
 * output checks every operation must pass.
 *
 * Everything here observes the simulator from outside: it calls only
 * public library entry points and never reaches into src/.
 */

#ifndef INCA_BENCH_E2E_HARNESS_HH
#define INCA_BENCH_E2E_HARNESS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dse/explorer.hh"
#include "reliability/campaign.hh"
#include "serving/simulator.hh"

namespace inca {
namespace bench {

// ---- Statistics ----------------------------------------------------

/** Median of @p v (mean of the middle pair for even sizes). */
double median(std::vector<double> v);

/**
 * First quartile, median and third quartile, computed exactly as
 * Python's statistics.quantiles(v, n=4) (the default "exclusive"
 * method) and statistics.median compute them, so the spreads the
 * harness prints match what a Python reader of the same samples gets.
 * A single sample is its own quartiles; an empty vector is all 0.
 */
struct Quartiles
{
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;

    /** (q3 - q1) / median; 0 when the median is 0. */
    double relativeSpread() const;
};

Quartiles quartiles(std::vector<double> v);

// ---- Clocks --------------------------------------------------------

/** Monotonic wall clock [s]. */
double wallSeconds();

/** Process CPU time, user + system over every thread [s]. */
double cpuSeconds();

/** Peak resident set of this process so far [MiB]. */
double peakRssMiB();

/** Minor page faults of this process so far (first touches). */
double minorFaults();

/** System (kernel) CPU time of this process so far [s]. */
double systemSeconds();

/**
 * CPU time the hypervisor gave to other guests, summed over every
 * CPU of the host, since boot [s] (the steal column of /proc/stat;
 * 0 where the kernel does not report it).
 */
double stealSeconds();

/**
 * Time a fixed register-only loop [s]. The loop touches no memory and
 * calls nothing in the simulator, so its duration tracks only how
 * fast the host runs this process at that moment.
 */
double hostProbeSeconds();

// ---- JSON ----------------------------------------------------------

/** A parsed JSON value (objects keep member order). */
struct Json
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<Json> array;
    std::vector<std::pair<std::string, Json>> object;

    /** Member @p key of an object, or nullptr. */
    const Json *find(const std::string &key) const;
};

/**
 * Parse @p text as exactly one RFC 8259 JSON value (surrounding
 * whitespace allowed). Rejects what Python's json module rejects in
 * strict use: trailing commas, bare words, NaN/Infinity, leading
 * zeros, bad escapes, raw control characters, trailing data. On
 * failure returns false and describes the first error in @p error.
 */
bool parseJson(const std::string &text, Json &out, std::string *error);

/**
 * Copy of the JSON text @p json with every object member named
 * @p key removed, value included (the provenance manifest, which
 * records thread count and cache state and so must not enter the
 * output digest). @p json must be valid JSON.
 */
std::string withoutMember(const std::string &json,
                          const std::string &key);

// ---- Digests -------------------------------------------------------

/** FNV-1a 64 of @p bytes, continuing from @p h. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/** 16 lower-case hex digits. */
std::string hex64(std::uint64_t v);

// ---- Spans ---------------------------------------------------------

/** One timed call into a layer, recorded by the harness. */
struct SpanRecord
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = -1; ///< -1 while open
    int parent = -1;         ///< index of the enclosing span
    int op = -1;             ///< operation id the span belongs to
};

/**
 * Span duration minus the part of it that the spans whose parent is
 * @p id cover (the union of their intervals, clipped to the parent),
 * in seconds.
 */
double selfSeconds(const std::vector<SpanRecord> &spans, int id);

/**
 * In-memory span recorder of the traced run. Spans nest by call
 * order on one thread (the harness calls into the library from its
 * main thread only); nothing is written until chromeJson().
 */
class SpanRecorder
{
  public:
    /** Open a span under the innermost open one; returns its id. */
    int begin(const std::string &name, int op);

    /** Close span @p id (must be the innermost open span). */
    void end(int id);

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Duration of span @p id [s]. */
    double seconds(int id) const;

    /** Sum of the durations of the spans named @p name in op @p op. */
    double opSeconds(const std::string &name, int op) const;

    /** Chrome trace-event JSON ({"traceEvents": [...]}). */
    std::string chromeJson() const;

  private:
    std::vector<SpanRecord> spans_;
    std::vector<int> open_;
};

/** RAII span; a null recorder makes it a no-op (untraced ops). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const std::string &name, int op)
        : rec_(rec), id_(rec ? rec->begin(name, op) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->end(id_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec_;
    int id_;
};

// ---- Output checks -------------------------------------------------
// Each returns one message per violated property; empty means pass.

/**
 * Serve: every offered request has exactly one terminal outcome, the
 * per-request CSV has one row per offered request, and the JSON
 * report parses strictly.
 */
std::vector<std::string> checkServe(const serving::ServingReport &rep,
                                    const std::string &requestsCsv,
                                    const std::string &reportJson);

/**
 * Explore: the run evaluated exactly @p budget proposals, and the
 * frontier is non-empty, scored, and mutually non-dominated; the
 * frontier JSON parses strictly.
 */
std::vector<std::string> checkExplore(const dse::ExploreResult &res,
                                      std::uint64_t budget,
                                      const std::string &frontierJson);

/**
 * Campaign: @p points sweep points ran @p trials trials each, and
 * every accuracy lies in [0, 1]; the campaign JSON parses strictly.
 */
std::vector<std::string>
checkCampaign(const reliability::CampaignResult &res, std::size_t points,
              int trials, const std::string &campaignJson);

} // namespace bench
} // namespace inca

#endif // INCA_BENCH_E2E_HARNESS_HH
