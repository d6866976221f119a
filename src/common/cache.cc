#include "common/cache.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>

#include "common/trace.hh"

namespace inca {

namespace {

/**
 * Live caches in registration order, plus the final stats of caches
 * destroyed since the last clearAllCaches(), one row per name (so a
 * process that runs many Explorers keeps one "dse.eval" row).
 */
struct Registry
{
    std::mutex mutex;
    std::vector<CacheBase *> live;
    std::vector<CacheStatsSnapshot> retired;
};

/** Add @p s into the row of the same name in @p rows, or append it. */
void
accumulate(std::vector<CacheStatsSnapshot> &rows,
           const CacheStatsSnapshot &s)
{
    for (CacheStatsSnapshot &row : rows) {
        if (row.name == s.name) {
            row.hits += s.hits;
            row.misses += s.misses;
            row.entries += s.entries;
            row.missSeconds += s.missSeconds;
            return;
        }
    }
    rows.push_back(s);
}

Registry &
registry()
{
    // Leaked on purpose: caches may be destroyed during static
    // destruction; the registry must outlive them all.
    static Registry *r = new Registry;
    return *r;
}

std::atomic<bool> &
enabledFlag()
{
    static std::atomic<bool> *flag = new std::atomic<bool>(
        cacheEnabledFromEnv(std::getenv("INCA_CACHE")));
    return *flag;
}

} // namespace

bool
cacheEnabledFromEnv(const char *value)
{
    if (value == nullptr || *value == '\0')
        return true;
    std::string v;
    for (const char *p = value; *p != '\0'; ++p)
        v.push_back(char(std::tolower(static_cast<unsigned char>(*p))));
    return !(v == "0" || v == "off" || v == "false" || v == "no");
}

bool
cacheEnabled()
{
    return enabledFlag().load(std::memory_order_relaxed);
}

void
setCacheEnabled(bool enabled)
{
    enabledFlag().store(enabled, std::memory_order_relaxed);
}

CacheBase::CacheBase(std::string name)
    : name_(std::move(name)), traceHits_("cache." + name_ + ".hits"),
      traceMisses_("cache." + name_ + ".misses")
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.live.push_back(this);
}

CacheBase::~CacheBase()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.live.erase(std::find(r.live.begin(), r.live.end(), this));
    const CacheStatsSnapshot s = stats();
    if (s.hits + s.misses > 0)
        accumulate(r.retired, s);
}

CacheStatsSnapshot
CacheBase::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    CacheStatsSnapshot s;
    s.name = name_;
    s.hits = hits_;
    s.misses = misses_;
    s.entries = entries_;
    s.missSeconds = missSeconds_;
    return s;
}

void
CacheBase::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    clearEntries();
    hits_ = misses_ = entries_ = 0;
    missSeconds_ = 0.0;
}

void
CacheBase::recordHit()
{
    ++hits_;
    if (trace::enabled())
        trace::counter(traceHits_, double(hits_));
}

void
CacheBase::recordMiss(double seconds, bool inserted)
{
    ++misses_;
    entries_ += inserted ? 1 : 0;
    missSeconds_ += seconds;
    if (trace::enabled())
        trace::counter(traceMisses_, double(misses_));
}

std::vector<CacheStatsSnapshot>
cacheStats()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<CacheStatsSnapshot> out = r.retired;
    for (const CacheBase *cache : r.live)
        accumulate(out, cache->stats());
    return out;
}

void
clearAllCaches()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (CacheBase *cache : r.live)
        cache->clear();
    r.retired.clear();
}

} // namespace inca
