/**
 * @file
 * Canonical config keys and the evaluation memo.
 *
 * CacheKey is the canonical byte encoding of a design point's inputs
 * (arch::appendKey and the circuit/memory overloads it chains). Its
 * FNV-1a hash is an output, not a lookup detail: it is the
 * configKeyHash of every exported run and frontier row, the base= term
 * of the explore signature, and the reliability campaign's
 * trial-stream base.
 *
 * EvalCache is a memo from a caller-defined 64-bit key to a value.
 * The simulator's only instance is the dse::Explorer's "dse.eval"
 * memo, keyed by candidate index. That is where the reuse is: an
 * annealing search re-proposes candidates it has already scored,
 * while below that grain every evaluation is closed-form arithmetic
 * that costs less to redo than to key and look up.
 *
 * Correctness contract:
 *  - The owner keeps the memoized computation a pure function of the
 *    key. A hit returns a copy of the value the miss computed, so
 *    results are bit-identical with the memo on or off at every thread
 *    count.
 *  - Two threads that miss the same key concurrently both compute the
 *    (identical) value; the first insert wins. No lock is held while
 *    computing, so the memo composes with the ThreadPool fan-out.
 *
 * Memoization is ON by default; INCA_CACHE=0 (or "off"/"false"/"no")
 * turns getOrCompute into a plain call that records nothing. Each
 * instance counts its own hits, misses and the wall clock spent in
 * misses, from which the reports estimate the time the hits saved
 * (see sim::printPhaseTimes).
 */

#ifndef INCA_COMMON_CACHE_HH
#define INCA_COMMON_CACHE_HH

#include <chrono>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace inca {

/** True when the process-wide evaluation cache is enabled. */
bool cacheEnabled();

/** Programmatic override of the INCA_CACHE switch (testing hook). */
void setCacheEnabled(bool enabled);

/**
 * Parse an INCA_CACHE-style value: nullptr/"", "1", "on", "true",
 * "yes" enable; "0", "off", "false", "no" disable (case-insensitive).
 * Unrecognized values enable (cache on is the safe default: results
 * are bit-identical either way).
 */
bool cacheEnabledFromEnv(const char *value);

/**
 * Canonical content-addressed key: an append-only byte string plus an
 * incrementally maintained FNV-1a 64-bit hash. Each field is prefixed
 * with a one-byte type tag so adjacent fields of different types
 * cannot alias. Append fields in a fixed, documented order -- the
 * byte string IS the identity of the inputs.
 */
class CacheKey
{
  public:
    CacheKey() { bytes_.reserve(96); }

    CacheKey &add(std::uint64_t v) { return tagged('u', &v, 8); }
    CacheKey &add(std::int64_t v) { return tagged('i', &v, 8); }
    CacheKey &add(int v)
    {
        const std::int64_t wide = v;
        return tagged('n', &wide, 8);
    }
    CacheKey &add(bool v)
    {
        const unsigned char b = v ? 1 : 0;
        return tagged('b', &b, 1);
    }
    CacheKey &add(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, 8);
        return tagged('d', &bits, 8);
    }
    CacheKey &add(const std::string &s)
    {
        add(std::uint64_t(s.size()));
        return tagged('s', s.data(), s.size());
    }
    CacheKey &add(const char *s) { return add(std::string(s)); }

    /** FNV-1a 64 hash of the bytes so far. */
    std::uint64_t hash() const { return hash_; }

    /** The canonical byte string. */
    const std::string &bytes() const { return bytes_; }

    bool operator==(const CacheKey &o) const
    {
        return bytes_ == o.bytes_;
    }

  private:
    CacheKey &tagged(char tag, const void *data, std::size_t n)
    {
        append(&tag, 1);
        append(data, n);
        return *this;
    }

    void append(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        bytes_.append(reinterpret_cast<const char *>(p), n);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= 0x100000001b3ULL; // FNV-1a prime
        }
    }

    std::string bytes_;
    std::uint64_t hash_ = 0xcbf29ce484222325ULL; // FNV offset basis
};

/** Point-in-time counters of one named cache. */
struct CacheStatsSnapshot
{
    std::string name;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t entries = 0;
    double missSeconds = 0.0; ///< wall clock spent computing misses

    /** Hits / lookups, in [0, 1]; 0 when never used. */
    double hitRate() const
    {
        const double lookups = double(hits) + double(misses);
        return lookups == 0.0 ? 0.0 : double(hits) / lookups;
    }

    /** Estimated wall clock the hits avoided (hits x mean miss). */
    double estimatedSavedSeconds() const
    {
        return misses == 0
                   ? 0.0
                   : double(hits) * (missSeconds / double(misses));
    }
};

/**
 * The type-erased half of EvalCache: name, counters, and the
 * process-wide registry entry behind cacheStats()/clearAllCaches().
 * Counters belong to the instance, so two live caches of the same
 * name never reset or share each other's counts. When tracing is on,
 * every hit/miss also samples a trace counter series
 * ("cache.<name>.hits" / ".misses").
 */
class CacheBase
{
  public:
    explicit CacheBase(std::string name);
    virtual ~CacheBase();

    CacheBase(const CacheBase &) = delete;
    CacheBase &operator=(const CacheBase &) = delete;

    const std::string &name() const { return name_; }

    /** This instance's counters and entry count. */
    CacheStatsSnapshot stats() const;

    /** Drop every entry and reset the counters. */
    void clear();

  protected:
    // Both called with mutex_ held.
    void recordHit();
    void recordMiss(double seconds, bool inserted);

    /** Drop the stored values (called with mutex_ held). */
    virtual void clearEntries() = 0;

    mutable std::mutex mutex_; ///< guards counters and stored values

  private:
    std::string name_;
    std::string traceHits_; ///< trace counter-series names
    std::string traceMisses_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t entries_ = 0;
    double missSeconds_ = 0.0;
};

/**
 * Stats per cache name, summed over every live cache and every cache
 * destroyed since the last clearAllCaches() (each Explorer's memo is
 * named "dse.eval"), so a driver can report a memo after its owner is
 * gone.
 */
std::vector<CacheStatsSnapshot> cacheStats();

/** Clear every live cache and forget destroyed ones. */
void clearAllCaches();

/**
 * A memo from a 64-bit key to V. Values must be copyable;
 * getOrCompute returns by value. Holds at most one entry per distinct
 * key; nothing is ever evicted, so the owner bounds it by bounding
 * its key set.
 */
template <typename V>
class EvalCache : public CacheBase
{
  public:
    using CacheBase::CacheBase;

    /**
     * Return the stored value for @p key, or run @p compute, store,
     * and return it. With the cache disabled this is exactly
     * compute().
     */
    template <typename Fn>
    V getOrCompute(std::uint64_t key, Fn &&compute)
    {
        if (!cacheEnabled())
            return compute();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const auto it = map_.find(key);
            if (it != map_.end()) {
                recordHit();
                return it->second;
            }
        }
        const auto t0 = std::chrono::steady_clock::now();
        V value = compute();
        const std::chrono::duration<double> spent =
            std::chrono::steady_clock::now() - t0;
        std::lock_guard<std::mutex> lock(mutex_);
        recordMiss(spent.count(), map_.emplace(key, value).second);
        return value;
    }

  private:
    void clearEntries() override { map_.clear(); }

    std::unordered_map<std::uint64_t, V> map_;
};

} // namespace inca

#endif // INCA_COMMON_CACHE_HH
