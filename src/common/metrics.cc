#include "common/metrics.hh"

#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "common/export_util.hh"
#include "common/logging.hh"

namespace inca {
namespace metrics {

void
Histogram::observe(double v)
{
    std::size_t i = 0;
    while (i < kBounds && v > bound(i))
        ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> out(buckets_.size());
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        out[i] = buckets_[i].load(std::memory_order_relaxed);
    return out;
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
}

namespace {

enum class Kind
{
    Counter,
    Gauge,
    Histogram,
};

/** Registry of every metric, in registration order per kind. */
struct Registry
{
    std::mutex mutex;
    std::unordered_map<std::string, Kind> kinds;
    std::vector<Counter *> counters;
    std::vector<Gauge *> gauges;
    std::vector<Histogram *> histograms;
    std::unordered_map<std::string, Counter *> counterByName;
    std::unordered_map<std::string, Gauge *> gaugeByName;
    std::unordered_map<std::string, Histogram *> histogramByName;
};

void
writeAtExit()
{
    const char *path = std::getenv("INCA_METRICS");
    if (path == nullptr || *path == '\0')
        return;
    std::ofstream out(path);
    if (out)
        out << toJson();
}

Registry &
registry()
{
    // Leaked on purpose: metrics are updated from function-local
    // statics that may outlive any particular destruction order.
    // First use also registers the INCA_METRICS exit-time export so
    // every binary honors the variable without driver changes.
    static Registry *r = [] {
        auto *reg = new Registry;
        if (const char *env = std::getenv("INCA_METRICS")) {
            if (*env != '\0')
                std::atexit(writeAtExit);
        }
        return reg;
    }();
    return *r;
}

/**
 * Touch the registry during static initialization so INCA_METRICS is
 * honored even by a process that never registers a metric (the atexit
 * export then writes an empty registry rather than nothing).
 */
const bool gInitAtStartup = (registry(), true);

void
claimName(Registry &r, const std::string &name, Kind kind)
{
    auto [it, inserted] = r.kinds.emplace(name, kind);
    inca_assert(it->second == kind,
                "metric '%s' registered twice with different kinds",
                name.c_str());
    (void)inserted;
}

std::string
num(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

} // namespace

Counter &
counter(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    claimName(r, name, Kind::Counter);
    auto it = r.counterByName.find(name);
    if (it != r.counterByName.end())
        return *it->second;
    auto *c = new Counter(name);
    r.counters.push_back(c);
    r.counterByName.emplace(name, c);
    return *c;
}

Gauge &
gauge(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    claimName(r, name, Kind::Gauge);
    auto it = r.gaugeByName.find(name);
    if (it != r.gaugeByName.end())
        return *it->second;
    auto *g = new Gauge(name);
    r.gauges.push_back(g);
    r.gaugeByName.emplace(name, g);
    return *g;
}

Histogram &
histogram(const std::string &name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    claimName(r, name, Kind::Histogram);
    auto it = r.histogramByName.find(name);
    if (it != r.histogramByName.end())
        return *it->second;
    auto *h = new Histogram(name);
    r.histograms.push_back(h);
    r.histogramByName.emplace(name, h);
    return *h;
}

std::string
toJson()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::ostringstream os;
    os << "{\n  \"counters\": {";
    for (std::size_t i = 0; i < r.counters.size(); ++i) {
        os << (i ? "," : "") << "\n    \""
           << jsonEscape(r.counters[i]->name())
           << "\": " << r.counters[i]->value();
    }
    os << (r.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
    for (std::size_t i = 0; i < r.gauges.size(); ++i) {
        os << (i ? "," : "") << "\n    \""
           << jsonEscape(r.gauges[i]->name())
           << "\": " << num(r.gauges[i]->value());
    }
    os << (r.gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
    for (std::size_t i = 0; i < r.histograms.size(); ++i) {
        const Histogram &h = *r.histograms[i];
        os << (i ? "," : "") << "\n    \"" << jsonEscape(h.name())
           << "\": {\"count\": " << h.count()
           << ", \"sum\": " << num(h.sum()) << ", \"buckets\": [";
        const auto counts = h.bucketCounts();
        for (std::size_t b = 0; b < counts.size(); ++b) {
            os << (b ? ", " : "") << "{\"le\": ";
            if (b < Histogram::kBounds)
                os << num(Histogram::bound(b));
            else
                os << "\"+Inf\"";
            os << ", \"count\": " << counts[b] << "}";
        }
        os << "]}";
    }
    os << (r.histograms.empty() ? "" : "\n  ") << "}\n}\n";
    return os.str();
}

void
printText(std::FILE *out)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    bool any = false;
    for (const Counter *c : r.counters)
        any = any || c->value() > 0;
    for (const Gauge *g : r.gauges)
        any = any || g->value() != 0.0;
    for (const Histogram *h : r.histograms)
        any = any || h->count() > 0;
    if (!any)
        return;
    std::fprintf(out, "\nprocess metrics:\n");
    for (const Counter *c : r.counters) {
        if (c->value() == 0)
            continue;
        std::fprintf(out, "  %-40s %12llu\n", c->name().c_str(),
                     (unsigned long long)c->value());
    }
    for (const Gauge *g : r.gauges) {
        if (g->value() == 0.0)
            continue;
        std::fprintf(out, "  %-40s %12.4g\n", g->name().c_str(),
                     g->value());
    }
    for (const Histogram *h : r.histograms) {
        if (h->count() == 0)
            continue;
        std::fprintf(out, "  %-40s %12llu obs  mean %10.1f\n",
                     h->name().c_str(), (unsigned long long)h->count(),
                     h->mean());
    }
}

void
resetAll()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (Counter *c : r.counters)
        c->reset();
    for (Gauge *g : r.gauges)
        g->reset();
    for (Histogram *h : r.histograms)
        h->reset();
}

} // namespace metrics
} // namespace inca
