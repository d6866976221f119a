#include "serving/export.hh"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <vector>

#include "common/export_util.hh"
#include "common/metrics.hh"
#include "common/trace.hh"

namespace inca {
namespace serving {

namespace {

// Upper bounds on one CSV field's bytes, for sizing a row buffer.
constexpr std::size_t kU64Bytes = 20;    // any std::uint64_t
constexpr std::size_t kIntBytes = 11;    // any int, e.g. "-2147483648"
constexpr std::size_t kOutcomeBytes = 7; // "timeout", the longest name

/** Write an integer at @p p as the stream inserter prints it. */
char *
writeInt(char *p, int v)
{
    return std::to_chars(p, p + kIntBytes, v).ptr;
}

char *
writeInt(char *p, std::uint64_t v)
{
    return std::to_chars(p, p + kU64Bytes, v).ptr;
}

char *
writeBytes(char *p, const char *s, std::size_t n)
{
    std::memcpy(p, s, n);
    return p + n;
}

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

const char *
engineName(const ServingSpec &spec)
{
    return spec.incaEngine ? "inca" : "ws";
}

std::string
workloadName(const ServingSpec &spec)
{
    std::string out;
    for (const StreamSpec &s : spec.streams) {
        if (!out.empty())
            out += '+';
        out += s.network;
    }
    return out;
}

std::uint64_t
configHash(const ServingSpec &spec)
{
    const BatchCostModel model =
        spec.incaEngine ? BatchCostModel(spec.inca, spec.shard)
                        : BatchCostModel(spec.ws, spec.shard);
    return model.configKeyHash();
}

} // namespace

std::string
reportText(const ServingReport &rep)
{
    const ServingSpec &spec = rep.spec;
    std::ostringstream os;
    os << "=== serving report: " << workloadName(spec) << " on "
       << engineName(spec) << " ===\n";
    os << "arrivals        " << arrivalKindName(spec.arrivals.kind)
       << "  rate " << fmt("%.3f", spec.arrivals.ratePerS)
       << "/s  seed " << spec.arrivals.seed << "  duration "
       << fmt("%.3f", spec.durationS) << " s\n";
    os << "servers         " << spec.replicas << " x "
       << spec.shard.chips << " chip"
       << (spec.shard.chips > 1 ? "s" : "") << " ("
       << shardKindName(spec.shard.kind) << ")\n";
    os << "batch policy    max " << spec.batch.maxBatch
       << ", timeout " << fmt("%.3f", spec.batch.timeoutS * 1e3)
       << " ms\n";
    if (spec.streams.size() > 1) {
        os << "streams        ";
        for (std::size_t i = 0; i < spec.streams.size(); ++i) {
            const StreamSpec &s = spec.streams[i];
            os << " " << s.network << "(w "
               << fmt("%.3g", s.weight) << ", prio " << s.priority
               << ")";
        }
        os << "\n";
    }
    os << "offered         " << rep.offered << " requests (realized "
       << fmt("%.3f", rep.offeredRatePerS) << "/s)\n";
    os << "completed       " << rep.completed;
    if (spec.sloS > 0.0)
        os << "  (within " << fmt("%.3f", spec.sloS * 1e3)
           << " ms SLO: " << rep.withinSlo << ")";
    os << "\n";
    if (chaosEnabled(spec)) {
        os << "outcomes        ok " << rep.completed << "  shed "
           << rep.shed << "  timeout " << rep.timedOut
           << "  failed " << rep.failed << "\n";
        os << "robustness      retries " << rep.retries
           << "  hedges " << rep.hedges << "  failovers "
           << rep.failovers << "\n";
        if (spec.failures.enabled) {
            os << "availability    "
               << fmt("%.6f", rep.availability) << " (";
            if (rep.availability >= 1.0)
                os << "inf";
            else
                os << fmt("%.2f",
                          -std::log10(1.0 - rep.availability));
            os << " nines)  unavailable "
               << fmt("%.3f", rep.unavailableS * 1e3) << " ms\n";
            os << "failures        " << rep.failureEvents
               << " events  killed batches " << rep.killedBatches
               << "\n";
        }
        for (std::size_t i = 0; i < rep.streamStats.size(); ++i) {
            const StreamStats &ss = rep.streamStats[i];
            os << "  stream " << spec.streams[i].network
               << "  offered " << ss.offered << "  ok "
               << ss.completed << "  shed " << ss.shed
               << "  timeout " << ss.timedOut << "  failed "
               << ss.failed << "  retries " << ss.retries
               << "  failovers " << ss.failovers << "\n";
        }
    }
    os << "makespan        " << fmt("%.6f", rep.makespanS) << " s\n";
    os << "latency         mean "
       << fmt("%.3f", rep.meanLatencyS * 1e3) << " ms  p50 "
       << fmt("%.3f", rep.p50S * 1e3) << " ms  p95 "
       << fmt("%.3f", rep.p95S * 1e3) << " ms  p99 "
       << fmt("%.3f", rep.p99S * 1e3) << " ms  max "
       << fmt("%.3f", rep.maxLatencyS * 1e3) << " ms\n";
    os << "queue           mean depth "
       << fmt("%.3f", rep.meanQueueDepth) << "  max "
       << rep.maxQueueDepth << "  mean wait "
       << fmt("%.3f", rep.meanWaitS * 1e3) << " ms\n";
    os << "batches         " << rep.batches << " (mean size "
       << fmt("%.3f", rep.meanBatchSize) << ")\n";
    os << "utilization     mean " << fmt("%.4f", rep.utilization)
       << " [";
    for (std::size_t i = 0; i < rep.servers.size(); ++i)
        os << (i ? " " : "")
           << fmt("%.4f", rep.servers[i].utilization);
    os << "]\n";
    os << "throughput      " << fmt("%.3f", rep.throughputRps)
       << " req/s\n";
    os << "goodput         " << fmt("%.3f", rep.goodputRps)
       << " req/s\n";
    os << "energy          dynamic "
       << fmt("%.6g", rep.dynamicEnergyJ) << " J  static "
       << fmt("%.6g", rep.staticEnergyJ) << " J  total "
       << fmt("%.6g", rep.energyJ) << " J\n";
    os << "energy/request  "
       << fmt("%.6g", rep.energyPerRequestJ * 1e3) << " mJ\n";
    return os.str();
}

std::string
reportJson(const ServingReport &rep)
{
    const ServingSpec &spec = rep.spec;
    std::ostringstream os;
    os << "{\n";
    os << "  \"kind\": \"serving.report\",\n";
    os << "  \"engine\": \"" << engineName(spec) << "\",\n";
    os << "  \"workload\": [";
    for (std::size_t i = 0; i < spec.streams.size(); ++i) {
        const StreamSpec &s = spec.streams[i];
        os << (i ? ", " : "") << "{\"network\": \""
           << jsonEscape(s.network)
           << "\", \"weight\": " << num17(s.weight)
           << ", \"priority\": " << s.priority << "}";
    }
    os << "],\n";
    os << "  \"arrivals\": {\"kind\": \""
       << arrivalKindName(spec.arrivals.kind)
       << "\", \"rate_per_s\": " << num17(spec.arrivals.ratePerS)
       << ", \"seed\": " << spec.arrivals.seed
       << ", \"burst_factor\": " << num17(spec.arrivals.burstFactor)
       << ", \"mean_on_s\": " << num17(spec.arrivals.meanOnS)
       << ", \"mean_off_s\": " << num17(spec.arrivals.meanOffS)
       << ", \"diurnal_period_s\": "
       << num17(spec.arrivals.diurnalPeriodS)
       << ", \"diurnal_depth\": "
       << num17(spec.arrivals.diurnalDepth) << "},\n";
    os << "  \"duration_s\": " << num17(spec.durationS) << ",\n";
    os << "  \"replicas\": " << spec.replicas << ",\n";
    os << "  \"shard\": {\"kind\": \""
       << shardKindName(spec.shard.kind)
       << "\", \"chips\": " << spec.shard.chips
       << ", \"link_bandwidth_bytes_per_s\": "
       << num17(spec.shard.link.bandwidthBytesPerS)
       << ", \"link_latency_s\": " << num17(spec.shard.link.latencyS)
       << ", \"link_energy_per_byte_j\": "
       << num17(spec.shard.link.energyPerByteJ) << "},\n";
    os << "  \"batch\": {\"max\": " << spec.batch.maxBatch
       << ", \"timeout_s\": " << num17(spec.batch.timeoutS)
       << "},\n";
    os << "  \"slo_s\": " << num17(spec.sloS) << ",\n";
    os << "  \"offered\": " << rep.offered << ",\n";
    os << "  \"completed\": " << rep.completed << ",\n";
    os << "  \"within_slo\": " << rep.withinSlo << ",\n";
    os << "  \"makespan_s\": " << num17(rep.makespanS) << ",\n";
    os << "  \"offered_rate_per_s\": " << num17(rep.offeredRatePerS)
       << ",\n";
    os << "  \"throughput_rps\": " << num17(rep.throughputRps)
       << ",\n";
    os << "  \"goodput_rps\": " << num17(rep.goodputRps) << ",\n";
    os << "  \"latency_s\": {\"mean\": " << num17(rep.meanLatencyS)
       << ", \"p50\": " << num17(rep.p50S)
       << ", \"p95\": " << num17(rep.p95S)
       << ", \"p99\": " << num17(rep.p99S)
       << ", \"max\": " << num17(rep.maxLatencyS)
       << ", \"mean_wait\": " << num17(rep.meanWaitS) << "},\n";
    os << "  \"queue\": {\"mean_depth\": "
       << num17(rep.meanQueueDepth)
       << ", \"max_depth\": " << rep.maxQueueDepth
       << ", \"timeline_points\": " << rep.queueTimeline.size()
       << "},\n";
    os << "  \"batches\": {\"count\": " << rep.batches
       << ", \"mean_size\": " << num17(rep.meanBatchSize) << "},\n";
    if (chaosEnabled(spec)) {
        os << "  \"chaos\": {\n";
        os << "    \"failures\": {\"enabled\": "
           << (spec.failures.enabled ? "true" : "false")
           << ", \"mtbf_s\": " << num17(spec.failures.mtbfS)
           << ", \"mttr_s\": " << num17(spec.failures.mttrS)
           << ", \"degraded_fraction\": "
           << num17(spec.failures.degradedFraction)
           << ", \"slowdown_factor\": "
           << num17(spec.failures.slowdownFactor)
           << ", \"recovery_s\": " << num17(spec.failures.recoveryS)
           << ", \"aging\": " << num17(spec.failures.aging)
           << ", \"seed\": " << spec.failures.seed
           << ", \"drop_in_flight\": "
           << (spec.failures.dropInFlight ? "true" : "false")
           << "},\n";
        os << "    \"retry\": {\"budget\": " << spec.retry.budget
           << ", \"backoff_base_s\": "
           << num17(spec.retry.backoffBaseS)
           << ", \"jitter\": " << num17(spec.retry.jitter)
           << "},\n";
        os << "    \"deadline_s\": " << num17(spec.deadlineS)
           << ",\n";
        os << "    \"hedge_delay_s\": " << num17(spec.hedgeDelayS)
           << ",\n";
        os << "    \"queue_cap\": " << spec.queueCap << ",\n";
        os << "    \"shed\": " << rep.shed << ",\n";
        os << "    \"timed_out\": " << rep.timedOut << ",\n";
        os << "    \"failed\": " << rep.failed << ",\n";
        os << "    \"retries\": " << rep.retries << ",\n";
        os << "    \"hedges\": " << rep.hedges << ",\n";
        os << "    \"failovers\": " << rep.failovers << ",\n";
        os << "    \"killed_batches\": " << rep.killedBatches
           << ",\n";
        os << "    \"failure_events\": " << rep.failureEvents
           << ",\n";
        os << "    \"availability\": " << num17(rep.availability)
           << ",\n";
        os << "    \"unavailable_s\": " << num17(rep.unavailableS)
           << ",\n";
        os << "    \"streams\": [";
        for (std::size_t i = 0; i < rep.streamStats.size(); ++i) {
            const StreamStats &ss = rep.streamStats[i];
            os << (i ? ", " : "") << "{\"offered\": " << ss.offered
               << ", \"completed\": " << ss.completed
               << ", \"shed\": " << ss.shed
               << ", \"timed_out\": " << ss.timedOut
               << ", \"failed\": " << ss.failed
               << ", \"retries\": " << ss.retries
               << ", \"failovers\": " << ss.failovers << "}";
        }
        os << "]\n";
        os << "  },\n";
    }
    os << "  \"utilization\": " << num17(rep.utilization) << ",\n";
    os << "  \"servers\": [";
    for (std::size_t i = 0; i < rep.servers.size(); ++i) {
        const ServerStats &s = rep.servers[i];
        os << (i ? ", " : "") << "{\"batches\": " << s.batches
           << ", \"requests\": " << s.requests
           << ", \"busy_s\": " << num17(s.busyS)
           << ", \"utilization\": " << num17(s.utilization);
        if (chaosEnabled(spec))
            os << ", \"failures\": " << s.failures
               << ", \"killed_batches\": " << s.killedBatches
               << ", \"down_s\": " << num17(s.downS);
        os << "}";
    }
    os << "],\n";
    os << "  \"energy_j\": {\"dynamic\": "
       << num17(rep.dynamicEnergyJ)
       << ", \"static\": " << num17(rep.staticEnergyJ)
       << ", \"total\": " << num17(rep.energyJ)
       << ", \"per_request\": " << num17(rep.energyPerRequestJ)
       << "},\n";
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%" PRIx64,
                  configHash(spec));
    os << "  \"provenance\": {\n"
       << provenanceJson(std::string("\"config_key_hash\": \"") +
                             hex + "\"",
                         "    ")
       << "  }\n";
    os << "}\n";
    return os.str();
}

std::string
requestsCsv(const ServingReport &rep)
{
    const bool chaos = chaosEnabled(rep.spec);
    // Quote each stream's network once, not once per row.
    std::vector<std::string> networks;
    std::size_t longest = 0;
    for (const StreamSpec &s : rep.spec.streams) {
        networks.push_back(csvField(s.network));
        longest = std::max(longest, networks.back().size());
    }
    // The longest possible row: the id, the network, 3 ints, 5
    // numbers, 9 commas and the newline; in chaos mode also 4 commas,
    // the outcome name, retries, hedged and a number. Each row is
    // written into one buffer of that size and appended once; the
    // table reserves it for every request, so no append reallocates,
    // and only the bytes written are ever touched.
    const std::size_t rowBytes =
        kU64Bytes + longest + 3 * kIntBytes + 5 * kNum17Bytes + 10 +
        (chaos ? 4 + kOutcomeBytes + kIntBytes + 1 + kNum17Bytes : 0);
    std::string row(rowBytes, '\0');
    std::string out;
    out.reserve(128 + rep.requests.size() * rowBytes);
    out += "id,stream,network,arrival_s,dispatch_s,completion_s,"
           "latency_s,wait_s,server,batch_size";
    if (chaos)
        out += ",outcome,retries,hedged,queued_s";
    out += '\n';
    for (const RequestRecord &r : rep.requests) {
        char *p = row.data();
        p = writeInt(p, r.id);
        *p++ = ',';
        p = writeInt(p, r.stream);
        *p++ = ',';
        const std::string &network = networks[std::size_t(r.stream)];
        p = writeBytes(p, network.data(), network.size());
        *p++ = ',';
        p = writeNum17(p, r.arrivalS);
        *p++ = ',';
        // A request never dispatched (shed, reaped from its queue) or
        // never completed leaves those times empty, not 0 - arrival.
        if (r.hasDispatch())
            p = writeNum17(p, r.dispatchS);
        *p++ = ',';
        if (r.hasCompletion())
            p = writeNum17(p, r.completionS);
        *p++ = ',';
        if (r.hasCompletion())
            p = writeNum17(p, r.latencyS());
        *p++ = ',';
        if (r.hasDispatch())
            p = writeNum17(p, r.waitS());
        *p++ = ',';
        p = writeInt(p, r.server);
        *p++ = ',';
        p = writeInt(p, r.batchSize);
        if (chaos) {
            *p++ = ',';
            const char *outcome = requestOutcomeName(r.outcome);
            p = writeBytes(p, outcome, std::strlen(outcome));
            *p++ = ',';
            p = writeInt(p, r.retries);
            p = writeBytes(p, r.hedged ? ",1," : ",0,", 3);
            p = writeNum17(p, r.queuedS);
        }
        *p++ = '\n';
        out.append(row.data(), p);
    }
    return out;
}

std::string
timelineCsv(const ServingReport &rep)
{
    char row[kNum17Bytes + kU64Bytes + 2];
    std::string out;
    out.reserve(32 + rep.queueTimeline.size() * sizeof(row));
    out += "time_s,queue_depth\n";
    for (const auto &point : rep.queueTimeline) {
        char *p = writeNum17(row, point.first);
        *p++ = ',';
        p = writeInt(p, point.second);
        *p++ = '\n';
        out.append(row, p);
    }
    return out;
}

void
publishMetrics(const ServingReport &rep)
{
    metrics::gauge("serving.offered").set(double(rep.offered));
    metrics::gauge("serving.completed").set(double(rep.completed));
    metrics::gauge("serving.within_slo")
        .set(double(rep.withinSlo));
    metrics::gauge("serving.makespan_s").set(rep.makespanS);
    metrics::gauge("serving.throughput_rps").set(rep.throughputRps);
    metrics::gauge("serving.goodput_rps").set(rep.goodputRps);
    metrics::gauge("serving.p99_ms").set(rep.p99S * 1e3);
    metrics::gauge("serving.mean_queue_depth")
        .set(rep.meanQueueDepth);
    metrics::gauge("serving.max_queue_depth")
        .set(double(rep.maxQueueDepth));
    metrics::gauge("serving.utilization").set(rep.utilization);
    metrics::gauge("serving.energy_per_request_j")
        .set(rep.energyPerRequestJ);
    if (chaosEnabled(rep.spec)) {
        metrics::gauge("serving.shed").set(double(rep.shed));
        metrics::gauge("serving.timeouts").set(double(rep.timedOut));
        metrics::gauge("serving.failed").set(double(rep.failed));
        metrics::gauge("serving.retries").set(double(rep.retries));
        metrics::gauge("serving.hedges").set(double(rep.hedges));
        metrics::gauge("serving.failovers").set(double(rep.failovers));
        metrics::gauge("serving.availability")
            .set(rep.availability);
    }
}

void
emitTrace(const ServingReport &rep)
{
    if (!trace::enabled())
        return;
    for (const auto &point : rep.queueTimeline)
        trace::counterAt("serving.queue_depth",
                         std::int64_t(point.first * 1e6),
                         double(point.second));
    trace::emitInstant("serving.makespan",
                       std::int64_t(rep.makespanS * 1e6));
}

} // namespace serving
} // namespace inca
