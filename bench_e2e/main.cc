/**
 * @file
 * End-to-end benchmark harness: one process runs one workload.
 *
 *   inca_bench_e2e --workload <name> --seed <n> --seconds <s>
 *                  [--trace 0|1] [--setup-only] [--spans <path>]
 *
 * Untraced (--trace 0): set up (pool, inputs, one untimed cold
 * operation), then run operations back to back for --seconds, one in
 * flight, clearing every evaluation cache before each so each pays
 * what one driver invocation pays. Prints the end-to-end metrics.
 * --setup-only stops after the set-up.
 *
 * Traced (--trace 1): one untraced and one traced operation, the
 * operation at 1 lane and with caches off, then component calls on
 * the operation's inputs; prints the per-layer metrics and writes the
 * spans as Chrome trace-event JSON to --spans.
 *
 * Every operation's outputs are checked and digested; a digest that
 * differs from the cold operation's is a failed operation. The last
 * stdout line is one JSON object: correct, attempted, failed, digest
 * and metrics ({name: {value, unit}}); bench_e2e/run.py reads it.
 */

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/cache.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"
#include "harness.hh"
#include "tensor/kernels/kernels.hh"
#include "workloads.hh"

namespace {

using namespace inca;
using namespace inca::bench;

/** Operations a timed run makes even when --seconds runs out first. */
constexpr int kMinTimedOps = 3;

/** CPUs this process may run on (what nproc prints). */
int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return std::max(CPU_COUNT(&set), 1);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    bool setupOnly = false;
    std::string spansPath;
};

[[noreturn]] void
usageError(const char *msg)
{
    std::fprintf(stderr,
                 "inca_bench_e2e: %s\nusage: inca_bench_e2e --workload "
                 "<name> --seed <n> --seconds <s> [--trace 0|1] "
                 "[--setup-only] [--spans <path>]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            a.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usageError(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end || v[0] == '-')
                usageError("--seed needs a non-negative integer");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(a.seconds > 0.0))
                usageError("--seconds needs a positive number");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usageError("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--spans") {
            a.spansPath = v;
        } else {
            usageError(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload.empty())
        usageError("--workload is required");
    return a;
}

/** Registry values the traced run differences around an operation. */
struct RegistrySnapshot
{
    double observations = 0.0; ///< sum of every histogram's count
    double poolTasks = 0.0;
    double waitCount = 0.0;
    double waitSumUs = 0.0;
};

RegistrySnapshot
snapshotRegistry()
{
    Json doc;
    std::string err;
    if (!parseJson(metrics::toJson(), doc, &err)) {
        std::fprintf(stderr, "metrics registry JSON: %s\n", err.c_str());
        std::exit(1);
    }
    RegistrySnapshot s;
    if (const Json *c = doc.find("counters"))
        if (const Json *t = c->find("pool.tasks"))
            s.poolTasks = t->number;
    if (const Json *hs = doc.find("histograms")) {
        for (const auto &[name, h] : hs->object) {
            const Json *count = h.find("count");
            const Json *sum = h.find("sum");
            s.observations += count ? count->number : 0.0;
            if (name == "pool.task_wait_us") {
                s.waitCount = count ? count->number : 0.0;
                s.waitSumUs = sum ? sum->number : 0.0;
            }
        }
    }
    return s;
}

/** Result-line writer: {"correct", "attempted", "failed", ...}. */
void
printResult(bool correct, int attempted, int failed,
            std::uint64_t digest,
            const std::vector<std::pair<std::string,
                                        std::pair<double, std::string>>>
                &metricList)
{
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"digest\": \"" + hex64(digest) + "\"";
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metricList.size(); ++i) {
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g",
                      metricList[i].second.first);
        line += (i ? ", \"" : "\"") + metricList[i].first +
                "\": {\"value\": " + num + ", \"unit\": \"" +
                metricList[i].second.second + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
}

/** Print an operation's output-check failures; true when it passed. */
bool
report(const char *what, const OpResult &r, std::uint64_t coldDigest)
{
    bool ok = r.errors.empty();
    for (const std::string &e : r.errors)
        std::printf("# check failed (%s): %s\n", what, e.c_str());
    if (r.digest() != coldDigest) {
        std::printf("# check failed (%s): digest %s != cold %s\n", what,
                    hex64(r.digest()).c_str(), hex64(coldDigest).c_str());
        ok = false;
    }
    return ok;
}

void
printQuartiles(const char *name, const std::vector<double> &v,
               const char *unit)
{
    const Quartiles q = quartiles(v);
    std::printf("# %-12s n=%zu median=%.6g q1=%.6g q3=%.6g "
                "spread=%.4f %s\n",
                name, v.size(), q.median, q.q1, q.q3,
                q.relativeSpread(), unit);
}

int
timedRun(const Args &a, Workload &w, const OpResult &cold,
         double setupS, bool coldOk)
{
    int attempted = 1, failed = coldOk ? 0 : 1;
    std::vector<double> wall, cpu, probe, faults, sys;
    const double steal0 = stealSeconds();
    const double deadline = wallSeconds() + a.seconds;
    while (int(wall.size()) < kMinTimedOps || wallSeconds() < deadline) {
        const double probeBefore = hostProbeSeconds();
        clearAllCaches();
        const double f0 = minorFaults();
        const double s0 = systemSeconds();
        const double c0 = cpuSeconds();
        const double w0 = wallSeconds();
        w.operation(nullptr, attempted);
        const double w1 = wallSeconds();
        const double c1 = cpuSeconds();
        const double f1 = minorFaults();
        const double s1 = systemSeconds();
        const double probeAfter = hostProbeSeconds();
        const OpResult r = w.verify();
        ++attempted;
        const bool ok = report("timed", r, cold.digest());
        failed += ok ? 0 : 1;
        wall.push_back(w1 - w0);
        cpu.push_back(c1 - c0);
        probe.push_back(probeBefore);
        probe.push_back(probeAfter);
        faults.push_back(f1 - f0);
        sys.push_back(s1 - s0);
        std::printf("# op %3zu wall_s=%.6f cpu_s=%.6f sys_s=%.6f "
                    "minflt=%.0f probe_ms=%.3f/%.3f %s\n",
                    wall.size(), w1 - w0, c1 - c0, s1 - s0, f1 - f0,
                    probeBefore * 1e3, probeAfter * 1e3,
                    ok ? "ok" : "FAILED");
    }
    const double steal = stealSeconds() - steal0;
    const double rss = peakRssMiB();
    printQuartiles("wall_s", wall, "s");
    printQuartiles("cpu_s", cpu, "s");
    printQuartiles("sys_s", sys, "s kernel time per operation");
    printQuartiles("minflt", faults, "page faults per operation");
    printQuartiles("host_probe", probe, "s (fixed loop; not used to "
                                        "filter or rescale samples)");
    std::printf("# host_steal_s=%.3f over the timed operations (all "
                "CPUs)\n",
                steal);
    std::printf("# operations timed=%zu attempted=%d failed=%d\n",
                wall.size(), attempted, failed);

    const double wallS = median(wall);
    printResult(failed == 0, attempted, failed, cold.digest(),
                {{"setup_s", {setupS, "s"}},
                 {"wall_s", {wallS, "s"}},
                 {"work_per_s", {cold.work / wallS, "work/s"}},
                 {"cpu_s", {median(cpu), "s"}},
                 {"peak_rss_mb", {rss, "MiB"}},
                 {"ok_frac", {double(attempted - failed) / attempted,
                              "frac"}}});
    return 0;
}

int
tracedRun(const Args &a, Workload &w, const OpResult &cold, bool coldOk,
          int lanes)
{
    int attempted = 1, failed = coldOk ? 0 : 1;
    SpanRecorder spans;
    OpTimes times;
    const auto pass = [&](const char *what, int op, bool traced) {
        clearAllCaches();
        const int id = spans.begin(std::string("operation ") + what, op);
        w.operation(traced ? &spans : nullptr, op);
        spans.end(id);
        const OpResult r = w.verify();
        ++attempted;
        const bool ok = report(what, r, cold.digest());
        failed += ok ? 0 : 1;
        std::printf("# pass %-9s wall_s=%.6f digest=%s %s\n", what,
                    spans.seconds(id), hex64(r.digest()).c_str(),
                    ok ? "ok" : "FAILED");
        return spans.seconds(id);
    };

    constexpr int kTracedOp = 2;
    times.plain = pass("untraced", 1, false);
    const RegistrySnapshot before = snapshotRegistry();
    times.traced = pass("traced", kTracedOp, true);
    const RegistrySnapshot after = snapshotRegistry();
    std::vector<CacheStatsSnapshot> caches = cacheStats();

    ThreadPool::setGlobalThreads(1);
    times.oneLane = pass("1-lane", 3, true);
    ThreadPool::setGlobalThreads(lanes);

    setCacheEnabled(false);
    times.cacheOff = pass("cache-off", 4, true);
    setCacheEnabled(true);

    std::printf("# spans of the traced operation: total_s self_s\n");
    for (std::size_t i = 0; i < spans.spans().size(); ++i)
        if (spans.spans()[i].op == kTracedOp)
            std::printf("#   %-26s %.6f %.6f\n",
                        spans.spans()[i].name.c_str(),
                        spans.seconds(int(i)),
                        selfSeconds(spans.spans(), int(i)));

    LayerMetrics layer;
    for (const auto &[name, unit] : layerMetricDefs())
        layer[name] = 0.0;
    const std::vector<std::string> crossErrors =
        w.decompose(spans, kTracedOp, times, lanes, layer);
    for (const std::string &e : crossErrors)
        std::printf("# check failed (decomposition): %s\n", e.c_str());
    failed += crossErrors.empty() ? 0 : 1;
    attempted += 1;

    double hits = 0, misses = 0, entries = 0, missS = 0;
    for (const CacheStatsSnapshot &c : caches) {
        hits += double(c.hits);
        misses += double(c.misses);
        entries += double(c.entries);
        missS += c.missSeconds;
        const std::string key = "common.cache." + c.name + ".hit_ratio";
        if (layer.count(key))
            layer[key] = c.hitRate();
        else if (c.hits + c.misses > 0)
            std::printf("# note: cache site %s has no per-layer metric\n",
                        c.name.c_str());
    }
    const double speedup = times.oneLane / times.plain;
    layer["common.pool.lanes"] = lanes;
    layer["common.pool.speedup"] = speedup;
    layer["common.pool.efficiency"] = speedup / lanes;
    layer["common.pool.tasks"] = after.poolTasks - before.poolTasks;
    const double waits = after.waitCount - before.waitCount;
    layer["common.pool.task_wait_us_mean"] =
        waits > 0 ? (after.waitSumUs - before.waitSumUs) / waits : 0.0;
    layer["common.metrics.observations"] =
        after.observations - before.observations;
    layer["common.cache.hits"] = hits;
    layer["common.cache.misses"] = misses;
    layer["common.cache.hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    layer["common.cache.entries"] = entries;
    layer["common.cache.miss_s"] = missS;
    layer["common.cache.saved_s"] = times.cacheOff - times.plain;
    layer["trace.overhead_s"] = times.traced - times.plain;

    if (layer.size() != layerMetricDefs().size()) {
        std::fprintf(stderr, "a workload set an undeclared metric\n");
        return 1;
    }
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        list;
    std::printf("# per-layer metrics (%s, seed %llu, %d lanes)\n",
                a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), lanes);
    for (const auto &[name, unit] : layerMetricDefs()) {
        std::printf("# %-46s %14.6g %s\n", name.c_str(), layer[name],
                    unit.c_str());
        list.push_back({name, {layer[name], unit}});
    }
    if (!a.spansPath.empty()) {
        std::ofstream out(a.spansPath);
        out << spans.chromeJson();
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         a.spansPath.c_str());
            return 1;
        }
        std::printf("# spans: %zu written to %s\n", spans.spans().size(),
                    a.spansPath.c_str());
    }
    printResult(failed == 0, attempted, failed, cold.digest(), list);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);

    // The benchmark pins every knob these switches would change.
    for (const char *name : {"INCA_TRACE", "INCA_METRICS", "INCA_CACHE",
                             "INCA_KERNEL_ISA", "INCA_NUM_THREADS"}) {
        if (std::getenv(name)) {
            std::fprintf(stderr,
                         "inca_bench_e2e: refusing to run with %s set; "
                         "the benchmark pins tracing, metrics export, "
                         "caches, kernel ISA and lanes itself\n",
                         name);
            return 2;
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usageError(("unknown workload " + a.workload).c_str());

    const int lanes = std::min(4, availableCpus());
    // Set-up: everything a one-shot driver run pays before a warm
    // operation -- pool start, inputs, and one cold operation.
    const double t0 = wallSeconds();
    ThreadPool::setGlobalThreads(lanes);
    std::unique_ptr<Workload> w = makeWorkload(a.workload, a.seed);
    clearAllCaches();
    w->operation(nullptr, 0);
    const double setupS = wallSeconds() - t0;
    const OpResult cold = w->verify();

    std::printf("# env workload=%s seed=%llu seconds=%g trace=%d "
                "lanes=%d nproc=%d kernel_isa=%s\n",
                a.workload.c_str(),
                static_cast<unsigned long long>(a.seed), a.seconds,
                a.trace, lanes, availableCpus(),
                kernels::isaName(kernels::activeIsa()));
    std::printf("# env cpu=\"%s\" compiler=\"%s\" build_type=%s "
                "flags=\"%s\"\n",
                cpuModel().c_str(), BENCH_CXX_COMPILER, BENCH_BUILD_TYPE,
                BENCH_CXX_FLAGS);
    std::printf("# work unit=%s per_op=%.17g\n", w->workUnit(), cold.work);
    for (const auto &[name, d] : cold.artifacts)
        std::printf("# digest %-14s %s\n", name.c_str(), hex64(d).c_str());
    std::printf("# digest %-14s %s\n", "operation", hex64(cold.digest()).c_str());
    const bool coldOk = report("cold", cold, cold.digest());
    std::printf("# setup_s=%.6f (pool start, inputs, cold operation)\n",
                setupS);

    if (a.setupOnly) {
        printResult(coldOk, 1, coldOk ? 0 : 1, cold.digest(),
                    {{"setup_s", {setupS, "s"}}});
        return 0;
    }
    return a.trace ? tracedRun(a, *w, cold, coldOk, lanes)
                   : timedRun(a, *w, cold, setupS, coldOk);
}
