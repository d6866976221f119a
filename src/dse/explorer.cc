#include "dse/explorer.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <sstream>
#include <system_error>
#include <unordered_map>
#include <unordered_set>

#include "arch/area.hh"
#include "arch/power.hh"
#include "arch/utilization.hh"
#include "baseline/engine.hh"
#include "common/cache.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "common/export_util.hh"
#include "dse/journal.hh"
#include "dse/pareto.hh"
#include "event/analysis.hh"
#include "event/event.hh"
#include "inca/engine.hh"
#include "ir/lower.hh"
#include "nn/model_zoo.hh"
#include "serving/simulator.hh"
#include "sim/export.hh"

namespace inca {
namespace dse {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * The engine call behind a candidate's energy and latency: one run of
 * @p cfg's engine over @p net at the config's batch size.
 */
template <typename Engine, typename Config>
arch::RunCost
runOn(const Config &cfg, const nn::NetworkDesc &net, arch::Phase phase)
{
    const Engine engine(cfg);
    return phase == arch::Phase::Training
               ? engine.training(net, cfg.batchSize)
               : engine.inference(net, cfg.batchSize);
}

/**
 * Score the event backend for one candidate: makespan plus the
 * bottleneck attribution (the frontier's diagnostic columns).
 */
void
scoreTimed(Evaluation &e, const ir::Program &prog)
{
    const event::TimedRun timed = event::execute(prog);
    e.timedLatencyS = timed.run.latency;
    event::AnalyzeOptions aopts;
    aopts.runWhatIf = false;
    const event::Report rep = event::analyze(prog, timed, aopts);
    e.bottleneckUnit = ir::unitName(rep.bottleneck);
    e.criticalShare = rep.bottleneckFraction;
}

} // namespace

Explorer::Explorer(SearchSpace space, ExploreOptions options)
    : space_(std::move(space)), options_(std::move(options)),
      net_(nn::byName(options_.network))
{
    inca_assert(!options_.objectives.empty(),
                "exploration needs at least one objective");
    maxWindow_ = maxConvWindow(net_);
    for (const Objective o : options_.objectives) {
        wantTimed_ = wantTimed_ || o == Objective::LatencyTimed;
        wantServing_ = wantServing_ || o == Objective::P99Latency ||
                       o == Objective::Goodput ||
                       o == Objective::EnergyPerRequest ||
                       o == Objective::Availability ||
                       o == Objective::ShedFraction;
    }
    // The SLO ceiling and the availability floor also need the
    // simulation they bound.
    wantServing_ = wantServing_ ||
                   options_.constraints.maxP99Ms > 0.0 ||
                   options_.constraints.minAvailability > 0.0;
}

bool
Explorer::servingChaosActive() const
{
    const ExploreOptions::ServingScenario &s = options_.serving;
    if (s.failures.enabled || s.retry.budget > 0 ||
        s.deadlineS > 0.0 || s.hedgeDelayS > 0.0 || s.queueCap > 0)
        return true;
    if (options_.constraints.minAvailability > 0.0)
        return true;
    for (const auto &axis : space_.axes())
        if (axis.name == "failure_mtbf")
            return true;
    return false;
}

std::string
Explorer::signature() const
{
    // Everything that determines the evaluation stream, in a fixed
    // spelling. Budget is deliberately excluded: resuming with a
    // larger budget continues the same stream further.
    std::ostringstream os;
    os << "v2 engine=" << engineKindName(options_.engine);
    os << " phase="
       << (options_.phase == arch::Phase::Training ? "training"
                                                   : "inference");
    os << " network=" << options_.network;
    os << " strategy=" << strategyKindName(options_.strategy);
    os << " seed=" << options_.seed;
    os << " eval_batch=" << options_.evalBatch;
    os << " objectives=";
    for (std::size_t i = 0; i < options_.objectives.size(); ++i) {
        if (i > 0)
            os << ',';
        os << objectiveName(options_.objectives[i]);
    }
    os << " constraints=[" << options_.constraints.str() << "]";
    os << " soft=" << (options_.softConstraints ? 1 : 0);
    os << " iso=" << (options_.isoCapacity ? 1 : 0);
    os << " sigma=" << num17(options_.noiseSigma);
    os << " ber=" << num17(options_.faultBer);
    os << " mitigation=retries:"
       << options_.mitigation.writeVerifyRetries
       << ",spare_rows:" << options_.mitigation.spareRows
       << ",spare_cols:" << options_.mitigation.spareCols;
    CacheKey baseKey;
    if (options_.engine == EngineKind::Inca)
        arch::appendKey(baseKey, options_.baseInca);
    else
        arch::appendKey(baseKey, options_.baseWs);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%llx",
                  static_cast<unsigned long long>(baseKey.hash()));
    os << " base=" << hex;
    // The serving scenario determines serving-scored values, so it is
    // part of the stream identity -- but only when serving scoring is
    // on, keeping every pre-serving signature byte-identical.
    if (wantServing_) {
        const ExploreOptions::ServingScenario &s = options_.serving;
        os << " serving=arrivals:"
           << serving::arrivalKindName(s.arrivals.kind)
           << ",rate:" << num17(s.arrivals.ratePerS)
           << ",seed:" << s.arrivals.seed
           << ",burst:" << num17(s.arrivals.burstFactor)
           << ",on:" << num17(s.arrivals.meanOnS)
           << ",off:" << num17(s.arrivals.meanOffS)
           << ",period:" << num17(s.arrivals.diurnalPeriodS)
           << ",depth:" << num17(s.arrivals.diurnalDepth)
           << ",duration:" << num17(s.durationS)
           << ",replicas:" << s.replicas
           << ",shard:" << serving::shardKindName(s.shard.kind)
           << ",chips:" << s.shard.chips
           << ",bw:" << num17(s.shard.link.bandwidthBytesPerS)
           << ",hop:" << num17(s.shard.link.latencyS)
           << ",pj:" << num17(s.shard.link.energyPerByteJ)
           << ",batch:" << s.batch.maxBatch
           << ",timeout:" << num17(s.batch.timeoutS)
           << ",slo:" << num17(s.sloS);
        // Chaos fields enter the identity only when active, keeping
        // chaos-free serving journals replayable across this change.
        if (servingChaosActive()) {
            os << " chaos=failures:"
               << (s.failures.enabled ? 1 : 0)
               << ",mtbf:" << num17(s.failures.mtbfS)
               << ",mttr:" << num17(s.failures.mttrS)
               << ",frac:" << num17(s.failures.degradedFraction)
               << ",slow:" << num17(s.failures.slowdownFactor)
               << ",recovery:" << num17(s.failures.recoveryS)
               << ",aging:" << num17(s.failures.aging)
               << ",fseed:" << s.failures.seed
               << ",drop:" << (s.failures.dropInFlight ? 1 : 0)
               << ",retries:" << s.retry.budget
               << ",backoff:" << num17(s.retry.backoffBaseS)
               << ",jitter:" << num17(s.retry.jitter)
               << ",deadline:" << num17(s.deadlineS)
               << ",hedge:" << num17(s.hedgeDelayS)
               << ",qcap:" << s.queueCap;
        }
    }
    os << " space=";
    for (const auto &axis : space_.axes()) {
        os << axis.name << "{";
        for (std::size_t i = 0; i < axis.values.size(); ++i) {
            if (i > 0)
                os << ',';
            os << axis.values[i];
        }
        os << "}";
    }
    return os.str();
}

/**
 * One miss being scored: its evaluation, the materialized chip its
 * parts share, its serving spec and cost table (serving scoring
 * only), and the seconds each part took. Parts run concurrently, but
 * each writes only its own fields or slot.
 */
struct Explorer::Scoring
{
    Evaluation e;
    arch::IncaConfig inca;   ///< the chip, Inca engine
    arch::BaselineConfig ws; ///< the chip, WS engine
    /** Passed the pre-score: gets part 0 and the cost slots. */
    bool proceeds = false;
    serving::ServingSpec spec;
    std::optional<serving::CostTable> table;
    /** Span label ("plane=16 adc_bits=4 ..."); empty untraced. */
    std::string label;
    /**
     * Seconds per part: [0] is the pre-score, part 0 and the
     * finishing pass, which never overlap; [p] is cost slot p - 1.
     */
    std::vector<double> partS;

    /** Parts after the pre-score: part 0 plus one per cost slot. */
    std::size_t parts() const { return proceeds ? partS.size() : 0; }

    /** The candidate's scoring time: the sum of its parts. */
    double seconds() const
    {
        double sum = 0.0;
        for (const double t : partS)
            sum += t;
        return sum;
    }
};

Evaluation
Explorer::evaluate(std::uint64_t flatIndex) const
{
    return evaluateWave({flatIndex}, {}).front();
}

arch::RunCost
Explorer::engineRun(std::uint64_t flatIndex) const
{
    const Candidate cand = space_.candidate(flatIndex);
    if (options_.engine == EngineKind::Inca)
        return runOn<core::IncaEngine>(
            materializeInca(space_, cand, options_.baseInca,
                            options_.isoCapacity),
            net_, options_.phase);
    return runOn<baseline::BaselineEngine>(
        materializeWs(space_, cand, options_.baseWs,
                      options_.isoCapacity),
        net_, options_.phase);
}

std::vector<Evaluation>
Explorer::evaluateWave(
    const std::vector<std::uint64_t> &wave,
    const std::unordered_map<std::uint64_t, Evaluation> &replay) const
{
    // Sort the proposals. A repeat of an index this wave misses waits
    // until the miss is stored and then hits the memo, instead of
    // racing it; with the memo off every proposal that is not
    // replayed is a miss.
    std::vector<Evaluation> evals(wave.size());
    std::vector<std::size_t> misses, repeats;
    std::unordered_set<std::uint64_t> missed;
    for (std::size_t i = 0; i < wave.size(); ++i) {
        const std::uint64_t idx = wave[i];
        const auto it = replay.find(idx);
        if (it != replay.end()) {
            evals[i] = it->second;
            evals[i].candidate = space_.candidate(idx);
            evals[i].reused = true;
        } else if (cacheEnabled() && missed.count(idx) != 0) {
            repeats.push_back(i);
        } else if (!memo_.lookup(idx, evals[i])) {
            missed.insert(idx);
            misses.push_back(i);
        }
    }

    std::vector<Scoring> scoring;
    scoring.reserve(misses.size());
    for (const std::size_t i : misses)
        scoring.push_back(preScore(wave[i]));

    // Every miss's parts as one flat set over the pool, big parts
    // first: each candidate's part 0 (engine run and timed score),
    // then the cost-table slots.
    std::vector<std::pair<std::size_t, std::size_t>> parts;
    for (std::size_t k = 0; k < scoring.size(); ++k)
        if (scoring[k].parts() > 0)
            parts.push_back({k, 0});
    for (std::size_t k = 0; k < scoring.size(); ++k)
        for (std::size_t p = 1; p < scoring[k].parts(); ++p)
            parts.push_back({k, p});
    parallel_for_each(
        std::int64_t(parts.size()), 1, [&](std::int64_t j) {
            const auto [k, p] = parts[std::size_t(j)];
            Scoring &s = scoring[k];
            if (p == 0) {
                scoreEngine(s);
                return;
            }
            trace::Span span(trace::spanName("dse.cost ", s.label));
            const Clock::time_point t0 = Clock::now();
            s.table->price(p - 1);
            s.partS[p] = secondsSince(t0);
        });
    parallel_for_each(std::int64_t(scoring.size()), 1,
                      [&](std::int64_t k) {
                          finishScoring(scoring[std::size_t(k)]);
                      });

    metrics::Histogram &evalUs = metrics::histogram("dse.eval_us");
    for (std::size_t k = 0; k < scoring.size(); ++k) {
        const double seconds = scoring[k].seconds();
        evalUs.observe(seconds * 1e6);
        Evaluation &e = evals[misses[k]];
        e = std::move(scoring[k].e);
        memo_.insert(wave[misses[k]], e, seconds);
    }
    for (const std::size_t i : repeats) {
        const bool hit = memo_.lookup(wave[i], evals[i]);
        inca_assert(hit, "candidate %llu was scored but not memoized",
                    static_cast<unsigned long long>(wave[i]));
    }
    return evals;
}

Explorer::Scoring
Explorer::preScore(std::uint64_t flatIndex) const
{
    const Clock::time_point t0 = Clock::now();
    Scoring s;
    Evaluation &e = s.e;
    e.candidate = space_.candidate(flatIndex);
    if (trace::enabled())
        s.label = space_.describe(e.candidate);
    const EngineKind kind = options_.engine;
    int adcBits = 0, activationBits = 0, arraySize = 0;
    if (kind == EngineKind::Inca) {
        s.inca = materializeInca(space_, e.candidate, options_.baseInca,
                                 options_.isoCapacity);
        const arch::IncaConfig &cfg = s.inca;
        adcBits = cfg.adcBits;
        activationBits = cfg.activationBits;
        arraySize = cfg.subarraySize;
        e.areaM2 = arch::incaArea(cfg).total();
        e.idlePowerW = arch::incaIdlePower(cfg);
        e.utilization = arch::incaNetworkUtilization(net_, arraySize);
    } else {
        s.ws = materializeWs(space_, e.candidate, options_.baseWs,
                             options_.isoCapacity);
        const arch::BaselineConfig &cfg = s.ws;
        adcBits = cfg.adcBits;
        activationBits = cfg.activationBits;
        arraySize = cfg.subarraySize;
        e.areaM2 = arch::baselineArea(cfg).total();
        e.idlePowerW = arch::baselineIdlePower(cfg);
        e.utilization = arch::wsNetworkUtilization(net_, arraySize);
    }
    e.accuracy =
        accuracyProxy(kind, adcBits, maxWindow_, options_.noiseSigma);
    e.resilience = resilienceProxy(
        kind, adcBits, maxWindow_, options_.noiseSigma, options_.faultBer,
        activationBits, arraySize, options_.mitigation);
    const ConstraintCheck check = checkConstraints(
        options_.constraints, e, kind, adcBits, maxWindow_);
    if (!check.ok) {
        e.feasible = false;
        e.rejectedBy = check.reason;
    }
    // A hard rejection stops here: no engine run, no cost slot.
    s.proceeds = check.ok || options_.softConstraints;
    if (s.proceeds && wantServing_) {
        s.spec = servingSpec(s);
        s.table.emplace(s.spec);
    }
    s.partS.assign(1 + (s.table ? s.table->size() : 0), 0.0);
    s.partS[0] = secondsSince(t0);
    return s;
}

void
Explorer::scoreEngine(Scoring &s) const
{
    trace::Span span(trace::spanName("dse.score ", s.label));
    const Clock::time_point t0 = Clock::now();
    Evaluation &e = s.e;
    const bool inca = options_.engine == EngineKind::Inca;
    const arch::RunCost run =
        inca ? runOn<core::IncaEngine>(s.inca, net_, options_.phase)
             : runOn<baseline::BaselineEngine>(s.ws, net_,
                                               options_.phase);
    if (wantTimed_)
        scoreTimed(e, inca ? ir::lowerInca(s.inca, net_, options_.phase,
                                           s.inca.batchSize,
                                           {/*overlap=*/true})
                           : ir::lowerWs(s.ws, net_, options_.phase,
                                         s.ws.batchSize,
                                         {/*overlap=*/true}));
    e.scored = true;
    e.energyJ = run.energy();
    e.latencyS = run.latency;
    e.configKeyHash = run.configKeyHash;
    s.partS[0] += secondsSince(t0);
}

void
Explorer::finishScoring(Scoring &s) const
{
    if (!s.proceeds)
        return;
    const Clock::time_point t0 = Clock::now();
    Evaluation &e = s.e;
    if (wantServing_) {
        trace::Span span(trace::spanName("dse.serve ", s.label));
        const serving::ServingReport rep =
            serving::simulate(s.spec, *s.table);
        e.p99LatencyS = rep.p99S;
        e.goodputRps = rep.goodputRps;
        e.energyPerRequestJ = rep.energyPerRequestJ;
        e.availability = rep.availability;
        e.shedFraction =
            rep.offered ? double(rep.shed) / double(rep.offered) : 0.0;
        // The SLO ceiling can only be checked here: unlike the cheap
        // pre-scoring bounds, p99 exists only after the simulation.
        const double p99Ms = e.p99LatencyS * 1e3;
        if (options_.constraints.maxP99Ms > 0.0 &&
            p99Ms > options_.constraints.maxP99Ms) {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "max_p99_ms (%g > %g)", p99Ms,
                          options_.constraints.maxP99Ms);
            e.feasible = false;
            e.rejectedBy = buf;
        }
        // The availability floor likewise exists only post-sim.
        if (e.feasible &&
            options_.constraints.minAvailability > 0.0 &&
            e.availability < options_.constraints.minAvailability) {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "min_availability (%g < %g)",
                          e.availability,
                          options_.constraints.minAvailability);
            e.feasible = false;
            e.rejectedBy = buf;
        }
    }
    orientObjectives(e, options_.objectives);
    s.partS[0] += secondsSince(t0);
}

serving::ServingSpec
Explorer::servingSpec(const Scoring &s) const
{
    const Candidate &cand = s.e.candidate;
    serving::ServingSpec spec;
    spec.incaEngine = options_.engine == EngineKind::Inca;
    if (spec.incaEngine)
        spec.inca = s.inca;
    else
        spec.ws = s.ws;
    spec.streams = {
        serving::StreamSpec{options_.network, 1.0, 0}};
    const ExploreOptions::ServingScenario &sc = options_.serving;
    spec.arrivals = sc.arrivals;
    spec.durationS = sc.durationS;
    spec.shard = sc.shard;
    spec.batch = sc.batch;
    spec.sloS = sc.sloS;
    // Datacenter axes, when searched, override the fixed scenario.
    spec.replicas =
        int(space_.value(cand, "replicas", sc.replicas));
    spec.batch.maxBatch = int(
        space_.value(cand, "serve_batch", sc.batch.maxBatch));
    spec.shard.kind = serving::ShardKind(space_.value(
        cand, "shard", std::int64_t(sc.shard.kind)));
    spec.shard.chips =
        int(space_.value(cand, "shard_chips", sc.shard.chips));
    // Chaos layer: scenario defaults, with the failure_mtbf axis
    // (milliseconds; 0 = injection off) overriding the MTBF.
    spec.failures = sc.failures;
    spec.retry = sc.retry;
    spec.deadlineS = sc.deadlineS;
    spec.hedgeDelayS = sc.hedgeDelayS;
    spec.queueCap = sc.queueCap;
    bool haveMtbfAxis = false;
    for (const auto &axis : space_.axes())
        haveMtbfAxis = haveMtbfAxis || axis.name == "failure_mtbf";
    if (haveMtbfAxis) {
        const std::int64_t mtbfMs =
            space_.value(cand, "failure_mtbf", 0);
        if (mtbfMs > 0) {
            spec.failures.enabled = true;
            spec.failures.mtbfS = double(mtbfMs) * 1e-3;
            if (spec.failures.mttrS <= 0.0)
                spec.failures.mttrS = spec.failures.mtbfS * 0.1;
        } else {
            spec.failures.enabled = false;
        }
    }
    return spec;
}

ExploreResult
Explorer::run()
{
    if (options_.strategy == StrategyKind::Anneal &&
        options_.budget == 0)
        fatal("the anneal strategy needs --budget (it never "
              "exhausts the space on its own)");

    ExploreResult result;
    result.spaceSize = space_.size();

    // Resume: recover journaled evaluations keyed by index. The
    // strategy stream below is replayed identically either way; a
    // journal hit just skips the engine run.
    std::unordered_map<std::uint64_t, Evaluation> replay;
    JournalWriter writer;
    if (!options_.journalPath.empty()) {
        JournalHeader header;
        header.signature = signature();
        header.spaceSize = space_.size();
        bool append = false;
        JournalContents contents;
        if (options_.resume &&
            readJournal(options_.journalPath, header,
                        options_.objectives.size(), contents)) {
            // Cut a torn tail, or the next line would be appended to
            // it and every later resume would read the glued line.
            if (contents.truncatedTail) {
                std::error_code err;
                std::filesystem::resize_file(options_.journalPath,
                                             contents.completeBytes, err);
                if (err)
                    fatal("cannot cut the torn tail of journal '%s': %s",
                          options_.journalPath.c_str(),
                          err.message().c_str());
            }
            replay = std::move(contents.evals);
            append = true;
        }
        writer.open(options_.journalPath, header, append);
    }

    const auto strategy =
        makeStrategy(options_.strategy, space_, options_.seed,
                     options_.objectives);
    ParetoFrontier frontier(options_.objectives.size());

    auto &scoredCtr = metrics::counter("dse.scored");
    auto &filteredCtr = metrics::counter("dse.filtered");
    auto &reusedCtr = metrics::counter("dse.reused");
    auto &frontierGauge = metrics::gauge("dse.frontier");

    std::uint64_t remaining =
        options_.budget ? options_.budget : ~std::uint64_t(0);
    while (remaining > 0) {
        const std::size_t want = std::size_t(
            std::min<std::uint64_t>(options_.evalBatch, remaining));
        const std::vector<std::uint64_t> wave =
            strategy->nextBatch(want);
        if (wave.empty())
            break;

        const std::vector<Evaluation> evals =
            evaluateWave(wave, replay);

        // Everything order-sensitive happens serially, in proposal
        // order: journal, counters, frontier, strategy feedback.
        for (const Evaluation &e : evals) {
            if (!e.feasible)
                warn("dse: %s rejected by %s",
                     space_.describe(e.candidate).c_str(),
                     e.rejectedBy.c_str());
            if (e.reused) {
                ++result.reused;
                reusedCtr.inc();
            } else {
                if (writer.isOpen())
                    writer.append(e);
                if (e.scored) {
                    ++result.scored;
                    scoredCtr.inc();
                }
            }
            if (!e.scored) {
                ++result.filtered;
                filteredCtr.inc();
            }
            if (e.feasible && e.scored)
                frontier.insert(e);
            result.evaluations.push_back(e);
        }
        frontierGauge.set(double(frontier.size()));
        strategy->observe(evals);
        remaining -= std::min<std::uint64_t>(remaining, wave.size());
    }

    result.frontier = frontier.sorted();
    return result;
}

std::string
frontierCsv(const SearchSpace &space,
            const std::vector<Evaluation> &frontier,
            const std::vector<Objective> &objectives)
{
    (void)objectives; // columns are fixed; objectives pick the points
    std::ostringstream os;
    os << "index";
    for (const auto &axis : space.axes())
        os << "," << axis.name;
    os << ",energy_j,latency_s,area_m2,idle_w,utilization,accuracy,"
          "resilience,latency_timed_s,bottleneck_unit,"
          "critical_share,p99_latency_s,goodput_rps,"
          "energy_per_request_j,availability,shed_fraction,"
          "config_key_hash\n";
    for (const Evaluation &e : frontier) {
        os << e.candidate.index;
        for (const std::int64_t v : e.candidate.values)
            os << "," << v;
        os << "," << num17(e.energyJ) << "," << num17(e.latencyS)
           << "," << num17(e.areaM2) << "," << num17(e.idlePowerW)
           << "," << num17(e.utilization) << ","
           << num17(e.accuracy) << "," << num17(e.resilience)
           << "," << num17(e.timedLatencyS) << ","
           << csvField(e.bottleneckUnit) << ","
           << num17(e.criticalShare) << ","
           << num17(e.p99LatencyS) << "," << num17(e.goodputRps)
           << "," << num17(e.energyPerRequestJ) << ","
           << num17(e.availability) << "," << num17(e.shedFraction);
        char hex[32];
        std::snprintf(hex, sizeof(hex), "0x%llx",
                      static_cast<unsigned long long>(
                          e.configKeyHash));
        os << "," << hex << "\n";
    }
    return os.str();
}

std::string
frontierJson(const Explorer &explorer, const ExploreResult &result)
{
    const ExploreOptions &opt = explorer.options();
    const SearchSpace &space = explorer.space();
    std::ostringstream os;
    os << "{\n";
    os << "  \"kind\": \"dse.frontier\",\n";
    os << "  \"engine\": \"" << engineKindName(opt.engine) << "\",\n";
    os << "  \"network\": \"" << jsonEscape(opt.network) << "\",\n";
    os << "  \"phase\": \""
       << (opt.phase == arch::Phase::Training ? "training"
                                              : "inference")
       << "\",\n";
    os << "  \"strategy\": \"" << strategyKindName(opt.strategy)
       << "\",\n";
    os << "  \"seed\": " << opt.seed << ",\n";
    os << "  \"budget\": " << opt.budget << ",\n";
    os << "  \"objectives\": [";
    for (std::size_t i = 0; i < opt.objectives.size(); ++i) {
        if (i > 0)
            os << ", ";
        os << "\"" << objectiveName(opt.objectives[i]) << "\"";
    }
    os << "],\n";
    os << "  \"constraints\": \""
       << jsonEscape(opt.constraints.str()) << "\",\n";
    os << "  \"iso_capacity\": "
       << (opt.isoCapacity ? "true" : "false") << ",\n";
    os << "  \"noise_sigma\": " << num17(opt.noiseSigma) << ",\n";
    os << "  \"fault_ber\": " << num17(opt.faultBer) << ",\n";
    os << "  \"space_size\": " << result.spaceSize << ",\n";
    os << "  \"evaluated\": " << result.evaluations.size() << ",\n";
    os << "  \"scored\": " << result.scored << ",\n";
    os << "  \"filtered\": " << result.filtered << ",\n";
    os << "  \"reused\": " << result.reused << ",\n";
    // The same run-provenance manifest sim::toJson embeds, with the
    // run signature in place of a single config hash (a frontier
    // spans many design points).
    os << "  \"provenance\": {\n"
       << provenanceJson("\"signature\": \"" +
                             jsonEscape(explorer.signature()) + "\"",
                         "    ")
       << "  },\n";
    os << "  \"frontier\": [\n";
    const std::vector<Evaluation> &points = result.frontier;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Evaluation &e = points[i];
        os << "    {\"index\": " << e.candidate.index
           << ", \"point\": {";
        const auto &axes = space.axes();
        for (std::size_t a = 0; a < axes.size(); ++a) {
            if (a > 0)
                os << ", ";
            os << "\"" << axes[a].name
               << "\": " << e.candidate.values[a];
        }
        os << "}, \"energy_j\": " << num17(e.energyJ)
           << ", \"latency_s\": " << num17(e.latencyS)
           << ", \"area_m2\": " << num17(e.areaM2)
           << ", \"idle_w\": " << num17(e.idlePowerW)
           << ", \"utilization\": " << num17(e.utilization)
           << ", \"accuracy\": " << num17(e.accuracy)
           << ", \"resilience\": " << num17(e.resilience)
           << ", \"latency_timed_s\": " << num17(e.timedLatencyS)
           << ", \"bottleneck_unit\": \""
           << jsonEscape(e.bottleneckUnit)
           << "\", \"critical_share\": " << num17(e.criticalShare)
           << ", \"p99_latency_s\": " << num17(e.p99LatencyS)
           << ", \"goodput_rps\": " << num17(e.goodputRps)
           << ", \"energy_per_request_j\": "
           << num17(e.energyPerRequestJ)
           << ", \"availability\": " << num17(e.availability)
           << ", \"shed_fraction\": " << num17(e.shedFraction)
           << "}"
           << (i + 1 < points.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

void
exportFrontierRuns(const Explorer &explorer,
                   const ExploreResult &result,
                   const std::string &prefix)
{
    for (const Evaluation &point : result.frontier) {
        const std::uint64_t idx = point.candidate.index;
        // Re-score (pure, memo-backed): a journal-replayed point
        // must still score before its run is written.
        inca_assert(explorer.evaluate(idx).scored,
                    "frontier member %llu failed to score",
                    static_cast<unsigned long long>(idx));
        const arch::RunCost run = explorer.engineRun(idx);
        const std::string base = prefix + "-" + std::to_string(idx);
        sim::writeFile(base + ".csv", sim::toCsv(run));
        sim::writeFile(base + ".json", sim::toJson(run));
    }
}

} // namespace dse
} // namespace inca
