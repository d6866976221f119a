#include "event/analysis.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/export_util.hh"
#include "common/logging.hh"
#include "common/metrics.hh"

namespace inca {
namespace event {

namespace {

/** Phase as the export spelling. */
const char *
phaseName(const ir::Program &p)
{
    return p.phase == arch::Phase::Training ? "training" : "inference";
}

/**
 * The gating dependency of @p i: the dep whose finish equals the
 * instruction's start (ties broken by smallest index, making the
 * path deterministic). -1 for source instructions.
 */
int
gateOf(const ir::Program &p, const TimedRun &t, int i)
{
    int gate = -1;
    for (const int d : p.instrs[std::size_t(i)].deps) {
        if (gate < 0 ||
            t.schedule[std::size_t(d)].finish >
                t.schedule[std::size_t(gate)].finish ||
            (t.schedule[std::size_t(d)].finish ==
                 t.schedule[std::size_t(gate)].finish &&
             d < gate))
            gate = d;
    }
    return gate;
}

} // namespace

void
ExactSum::add(double x)
{
    // math.fsum's partials maintenance: each two-sum is error-free,
    // and the invariant (non-overlapping partials of increasing
    // magnitude) keeps the list short and round() correct.
    std::size_t i = 0;
    for (std::size_t j = 0; j < partials_.size(); ++j) {
        double y = partials_[j];
        if (std::fabs(x) < std::fabs(y))
            std::swap(x, y);
        const double hi = x + y;
        const double lo = y - (hi - x);
        if (lo != 0.0)
            partials_[i++] = lo;
        x = hi;
    }
    partials_.resize(i);
    partials_.push_back(x);
}

double
ExactSum::round() const
{
    // math.fsum's final rounding: fold from the largest partial down
    // until one stops changing the running sum, then apply the
    // half-ulp correction using the sign of the next partial.
    std::size_t n = partials_.size();
    if (n == 0)
        return 0.0;
    double hi = partials_[--n];
    double lo = 0.0;
    while (n > 0) {
        const double x = hi;
        const double y = partials_[--n];
        hi = x + y;
        const double yr = hi - x;
        lo = y - yr;
        if (lo != 0.0)
            break;
    }
    if (n > 0 && ((lo < 0.0 && partials_[n - 1] < 0.0) ||
                  (lo > 0.0 && partials_[n - 1] > 0.0))) {
        const double y = lo * 2.0;
        const double x = hi + y;
        const double yr = x - hi;
        if (y == yr)
            hi = x;
    }
    return hi;
}

std::pair<double, double>
ExactSum::pair() const
{
    const double hi = round();
    ExactSum rest = *this;
    rest.add(-hi);
    return {hi, rest.round()};
}

ir::Program
scaleUnit(const ir::Program &p, ir::Unit unit, double factor)
{
    inca_assert(std::isfinite(factor) && factor > 0.0,
                "what-if factor %g for unit %s is not positive",
                factor, ir::unitName(unit));
    ir::Program out = p;
    for (ir::Instr &in : out.instrs)
        if (in.unit == unit)
            in.duration *= factor;
    return out;
}

Report
analyze(const ir::Program &p, const TimedRun &t,
        const AnalyzeOptions &opts)
{
    const int n = int(p.instrs.size());
    inca_assert(int(t.schedule.size()) == n,
                "schedule/program mismatch in '%s'",
                p.network.c_str());

    Report r;
    r.makespan = t.makespan;

    // --- Critical path: walk gates back from the exit sync. ---
    {
        std::vector<int> chain;
        int i = n - 1;
        while (true) {
            chain.push_back(i);
            const int gate = gateOf(p, t, i);
            if (gate < 0)
                break;
            inca_assert(t.schedule[std::size_t(gate)].finish ==
                            t.schedule[std::size_t(i)].start,
                        "gate of %d does not tile the path", i);
            i = gate;
        }
        inca_assert(t.schedule[std::size_t(chain.back())].start ==
                        0.0,
                    "critical path does not start at t=0");
        std::reverse(chain.begin(), chain.end());
        r.path.reserve(chain.size());
        for (const int idx : chain)
            r.path.push_back({idx, t.schedule[std::size_t(idx)].start,
                              t.schedule[std::size_t(idx)].finish,
                              p.instrs[std::size_t(idx)].duration});
    }

    // --- Exact shares: telescoped prefix differences. Each step
    // adds (finish, -start) to its unit's and layer's accumulator;
    // both endpoints are schedule doubles, so the grand total over
    // all accumulators is exactly finish(exit) - 0 = makespan. ---
    std::vector<int> spanOf(std::size_t(n), -1);
    for (std::size_t s = 0; s < p.spans.size(); ++s)
        for (int k = 0; k < p.spans[s].count; ++k)
            spanOf[std::size_t(p.spans[s].first + k)] = int(s);

    std::vector<ExactSum> unitSum;
    unitSum.resize(std::size_t(ir::kUnitCount));
    std::vector<ExactSum> spanSum;
    spanSum.resize(p.spans.size());
    for (const PathStep &step : r.path) {
        const int u = int(p.instrs[std::size_t(step.instr)].unit);
        unitSum[std::size_t(u)].add(step.finish);
        unitSum[std::size_t(u)].add(-step.start);
        const int s = spanOf[std::size_t(step.instr)];
        // Only the exit sync lives outside every span; its delta is
        // exactly zero (zero duration, start == gate finish), so
        // skipping it keeps the layer total exact.
        if (s >= 0) {
            spanSum[std::size_t(s)].add(step.finish);
            spanSum[std::size_t(s)].add(-step.start);
        }
    }

    // --- Slack: gap recursion over successors, reverse topological
    // order (dependencies always point backwards). ---
    const Successors succ(p);
    r.slack.assign(std::size_t(n), 0.0);
    for (int i = n - 1; i >= 0; --i) {
        if (succ.of(i).empty()) {
            r.slack[std::size_t(i)] = std::max(
                0.0, t.makespan - t.schedule[std::size_t(i)].finish);
            continue;
        }
        Seconds s = std::numeric_limits<double>::infinity();
        for (const int j : succ.of(i))
            s = std::min(s, (t.schedule[std::size_t(j)].start -
                             t.schedule[std::size_t(i)].finish) +
                                r.slack[std::size_t(j)]);
        r.slack[std::size_t(i)] = s;
    }

    // --- Per-unit occupancy over the recorded busy intervals. ---
    bool used[std::size_t(ir::kUnitCount)] = {};
    for (const ir::Instr &in : p.instrs)
        used[std::size_t(int(in.unit))] = true;
    for (int u = 0; u < ir::kUnitCount; ++u) {
        if (!used[std::size_t(u)])
            continue;
        UnitReport row;
        row.unit = ir::Unit(u);
        // Merged-interval sweep: coverage and gaps inside
        // [0, makespan], overhang past it. Intervals arrive sorted
        // by (start, instr).
        Seconds mergedStart = 0.0, mergedEnd = 0.0, prevEnd = 0.0;
        bool open = false;
        const auto closeMerged = [&] {
            if (!open)
                return;
            row.coverage += std::min(mergedEnd, t.makespan) -
                            std::min(mergedStart, t.makespan);
            row.overhang += std::max(mergedEnd, t.makespan) -
                            std::max(mergedStart, t.makespan);
            const Seconds gap = std::min(mergedStart, t.makespan) -
                                std::min(prevEnd, t.makespan);
            row.largestGap = std::max(row.largestGap, gap);
            prevEnd = mergedEnd;
            open = false;
        };
        const std::vector<BusyInterval> &intervals = t.busy[std::size_t(u)];
        row.intervals = int(intervals.size());
        for (const BusyInterval &iv : intervals) {
            row.busy += iv.finish - iv.start;
            if (open && iv.start <= mergedEnd) {
                mergedEnd = std::max(mergedEnd, iv.finish);
                continue;
            }
            closeMerged();
            mergedStart = iv.start;
            mergedEnd = iv.finish;
            open = true;
        }
        closeMerged();
        row.largestGap =
            std::max(row.largestGap,
                     t.makespan - std::min(prevEnd, t.makespan));
        row.idle = std::max(0.0, t.makespan - row.coverage);
        row.utilization =
            t.makespan > 0.0 ? row.coverage / t.makespan : 0.0;
        for (int i = 0; i < n; ++i)
            if (int(p.instrs[std::size_t(i)].unit) == u)
                row.maxSlack =
                    std::max(row.maxSlack, r.slack[std::size_t(i)]);
        const auto [hi, lo] = unitSum[std::size_t(u)].pair();
        row.criticalShare = {hi, lo};
        row.criticalFraction =
            t.makespan > 0.0 ? row.criticalShare.total() / t.makespan
                             : 0.0;
        r.units.push_back(row);
    }

    for (std::size_t s = 0; s < p.spans.size(); ++s) {
        const auto [hi, lo] = spanSum[s].pair();
        if (hi == 0.0 && lo == 0.0)
            continue; // span never gated the path
        LayerShare ls;
        ls.layer = p.spans[s].name;
        ls.share = {hi, lo};
        ls.fraction =
            t.makespan > 0.0 ? ls.share.total() / t.makespan : 0.0;
        r.layers.push_back(ls);
    }

    // --- Bottleneck: the unit with the largest critical share. ---
    for (const UnitReport &row : r.units)
        if (row.criticalFraction > r.bottleneckFraction) {
            r.bottleneck = row.unit;
            r.bottleneckFraction = row.criticalFraction;
        }

    // --- What-if sensitivity. ---
    if (opts.runWhatIf) {
        std::vector<std::pair<ir::Unit, double>> sweep = opts.whatIf;
        if (sweep.empty())
            for (const UnitReport &row : r.units)
                if (row.unit != ir::Unit::Ctrl)
                    sweep.push_back({row.unit, 0.5});
        for (const auto &[unit, factor] : sweep) {
            const TimedRun scaled =
                execute(scaleUnit(p, unit, factor));
            WhatIfEntry e;
            e.unit = unit;
            e.factor = factor;
            e.makespan = scaled.makespan;
            e.delta = t.makespan - scaled.makespan;
            e.speedup = scaled.makespan > 0.0
                            ? t.makespan / scaled.makespan
                            : 1.0;
            r.whatIf.push_back(e);
        }
    }
    return r;
}

void
publishMetrics(const Report &r)
{
    metrics::gauge("event.makespan_us").set(r.makespan * 1e6);
    for (const UnitReport &row : r.units) {
        const std::string base =
            std::string("event.unit.") + ir::unitName(row.unit);
        metrics::gauge(base + ".busy_us").set(row.busy * 1e6);
        metrics::gauge(base + ".idle_us").set(row.idle * 1e6);
        metrics::gauge(base + ".overhang_us").set(row.overhang * 1e6);
        metrics::gauge(base + ".utilization").set(row.utilization);
        metrics::gauge(base + ".critical_share")
            .set(row.criticalFraction);
    }
}

std::string
reportText(const ir::Program &p, const Report &r)
{
    std::ostringstream os;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "bottleneck report: %s.%s.%s batch=%d overlap=%d\n",
                  p.engine.c_str(), p.network.c_str(), phaseName(p),
                  p.batchSize, p.overlap ? 1 : 0);
    os << line;
    os << "makespan_s " << num17(r.makespan) << "\n";
    std::snprintf(line, sizeof(line),
                  "critical path: %zu steps, bottleneck unit %s "
                  "(%.2f%% of makespan)\n",
                  r.path.size(), ir::unitName(r.bottleneck),
                  100.0 * r.bottleneckFraction);
    os << line;
    os << "critical-path share by unit:\n";
    os << "  unit      share_s          pct\n";
    for (const UnitReport &row : r.units) {
        std::snprintf(line, sizeof(line), "  %-8s %14.9g %8.2f%%\n",
                      ir::unitName(row.unit),
                      row.criticalShare.total(),
                      100.0 * row.criticalFraction);
        os << line;
    }
    os << "critical-path share by layer:\n";
    os << "  layer               share_s          pct\n";
    for (const LayerShare &ls : r.layers) {
        std::snprintf(line, sizeof(line), "  %-18s %14.9g %8.2f%%\n",
                      ls.layer.c_str(), ls.share.total(),
                      100.0 * ls.fraction);
        os << line;
    }
    os << "unit occupancy:\n";
    os << "  unit     intervals       busy_s   coverage_s      "
          "idle_s  overhang_s  largest_gap_s  util  max_slack_s\n";
    for (const UnitReport &row : r.units) {
        std::snprintf(line, sizeof(line),
                      "  %-8s %9d %12.6g %12.6g %11.6g %11.6g "
                      "%14.6g %5.3f %12.6g\n",
                      ir::unitName(row.unit), row.intervals, row.busy,
                      row.coverage, row.idle, row.overhang,
                      row.largestGap, row.utilization, row.maxSlack);
        os << line;
    }
    if (!r.whatIf.empty()) {
        os << "what-if (one unit's durations scaled, schedule "
              "re-executed):\n";
        os << "  unit     factor   makespan_s      delta_s  "
              "speedup\n";
        for (const WhatIfEntry &e : r.whatIf) {
            std::snprintf(line, sizeof(line),
                          "  %-8s %6.3g %12.6g %12.6g %8.3f\n",
                          ir::unitName(e.unit), e.factor, e.makespan,
                          e.delta, e.speedup);
            os << line;
        }
    }
    return os.str();
}

std::string
reportJson(const ir::Program &p, const Report &r)
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"kind\": \"event.bottleneck\",\n";
    os << "  \"network\": \"" << jsonEscape(p.network) << "\",\n";
    os << "  \"engine\": \"" << jsonEscape(p.engine) << "\",\n";
    os << "  \"phase\": \"" << phaseName(p) << "\",\n";
    os << "  \"batch_size\": " << p.batchSize << ",\n";
    os << "  \"overlap\": " << (p.overlap ? "true" : "false")
       << ",\n";
    os << "  \"makespan_s\": " << num17(r.makespan) << ",\n";
    os << "  \"critical_path_steps\": " << r.path.size() << ",\n";
    os << "  \"bottleneck_unit\": \"" << ir::unitName(r.bottleneck)
       << "\",\n";
    os << "  \"bottleneck_fraction\": " << num17(r.bottleneckFraction)
       << ",\n";
    os << "  \"unit_shares\": [\n";
    for (std::size_t i = 0; i < r.units.size(); ++i) {
        const UnitReport &row = r.units[i];
        os << "    {\"unit\": \"" << ir::unitName(row.unit)
           << "\", \"share_hi_s\": " << num17(row.criticalShare.hi)
           << ", \"share_lo_s\": " << num17(row.criticalShare.lo)
           << ", \"fraction\": " << num17(row.criticalFraction)
           << "}" << (i + 1 < r.units.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"layer_shares\": [\n";
    for (std::size_t i = 0; i < r.layers.size(); ++i) {
        const LayerShare &ls = r.layers[i];
        os << "    {\"layer\": \"" << jsonEscape(ls.layer)
           << "\", \"share_hi_s\": " << num17(ls.share.hi)
           << ", \"share_lo_s\": " << num17(ls.share.lo)
           << ", \"fraction\": " << num17(ls.fraction) << "}"
           << (i + 1 < r.layers.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"units\": [\n";
    for (std::size_t i = 0; i < r.units.size(); ++i) {
        const UnitReport &row = r.units[i];
        os << "    {\"unit\": \"" << ir::unitName(row.unit)
           << "\", \"intervals\": " << row.intervals
           << ", \"busy_s\": " << num17(row.busy)
           << ", \"coverage_s\": " << num17(row.coverage)
           << ", \"idle_s\": " << num17(row.idle)
           << ", \"overhang_s\": " << num17(row.overhang)
           << ", \"largest_gap_s\": " << num17(row.largestGap)
           << ", \"utilization\": " << num17(row.utilization)
           << ", \"max_slack_s\": " << num17(row.maxSlack) << "}"
           << (i + 1 < r.units.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    os << "  \"what_if\": [\n";
    for (std::size_t i = 0; i < r.whatIf.size(); ++i) {
        const WhatIfEntry &e = r.whatIf[i];
        os << "    {\"unit\": \"" << ir::unitName(e.unit)
           << "\", \"factor\": " << num17(e.factor)
           << ", \"makespan_s\": " << num17(e.makespan)
           << ", \"delta_s\": " << num17(e.delta)
           << ", \"speedup\": " << num17(e.speedup) << "}"
           << (i + 1 < r.whatIf.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    {
        std::ostringstream lead;
        lead << "\"config_key_hash\": \"0x" << std::hex
             << p.configKeyHash << std::dec << "\"";
        os << "  \"provenance\": {\n"
           << provenanceJson(lead.str(), "    ") << "  }\n";
    }
    os << "}\n";
    return os.str();
}

std::string
reportCsv(const ir::Program &p, const Report &r)
{
    (void)p;
    std::ostringstream os;
    os << "unit,intervals,busy_s,coverage_s,idle_s,overhang_s,"
          "largest_gap_s,utilization,max_slack_s,"
          "critical_share_hi_s,critical_share_lo_s,"
          "critical_fraction\n";
    for (const UnitReport &row : r.units) {
        os << csvField(ir::unitName(row.unit)) << ","
           << row.intervals << "," << num17(row.busy) << ","
           << num17(row.coverage) << "," << num17(row.idle) << ","
           << num17(row.overhang) << "," << num17(row.largestGap)
           << "," << num17(row.utilization) << ","
           << num17(row.maxSlack) << ","
           << num17(row.criticalShare.hi) << ","
           << num17(row.criticalShare.lo) << ","
           << num17(row.criticalFraction) << "\n";
    }
    return os.str();
}

} // namespace event
} // namespace inca
