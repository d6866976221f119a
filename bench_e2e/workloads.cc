#include "workloads.hh"

#include <algorithm>

#include "arch/endurance.hh"
#include "common/cache.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "dse/space.hh"
#include "event/analysis.hh"
#include "event/event.hh"
#include "inca/engine.hh"
#include "ir/lower.hh"
#include "nn/model_zoo.hh"
#include "reliability/fault_model.hh"
#include "reliability/mitigation.hh"
#include "serving/arrivals.hh"
#include "serving/cost_model.hh"
#include "serving/export.hh"

namespace inca {
namespace bench {

std::uint64_t
OpResult::digest() const
{
    std::uint64_t h = fnv1a("");
    for (const auto &[name, d] : artifacts)
        h = fnv1a(name + ":" + hex64(d) + ";", h);
    return h;
}

const std::vector<std::pair<std::string, std::string>> &
layerMetricDefs()
{
    static const std::vector<std::pair<std::string, std::string>> defs = {
        {"serving.loop_s", "s"},
        {"serving.loop_ns_per_req", "ns"},
        {"serving.requests", "count"},
        {"serving.arrivals_s", "s"},
        {"serving.cost_table_s", "s"},
        {"serving.cost_calls", "count"},
        {"serving.export_csv_s", "s"},
        {"serving.export_timeline_s", "s"},
        {"serving.export_json_s", "s"},
        {"serving.export_mb", "MiB"},
        {"common.metrics.publish_s", "s"},
        {"common.metrics.observations", "count"},
        {"dse.evaluate_s", "s"},
        {"dse.bookkeeping_s", "s"},
        {"dse.candidates", "count"},
        {"dse.unique", "count"},
        {"dse.export_s", "s"},
        {"inca.run_s", "s"},
        {"ir.lower_s", "s"},
        {"ir.instrs", "count"},
        {"event.execute_s", "s"},
        {"event.analyze_s", "s"},
        {"reliability.trial_us", "us"},
        {"reliability.point_inca_s", "s"},
        {"reliability.point_ws_s", "s"},
        {"reliability.point_skew", "ratio"},
        {"reliability.sample_us", "us"},
        {"reliability.write_us", "us"},
        {"common.pool.lanes", "count"},
        {"common.pool.speedup", "ratio"},
        {"common.pool.efficiency", "ratio"},
        {"common.pool.tasks", "count"},
        {"common.pool.task_wait_us_mean", "us"},
        {"common.cache.hits", "count"},
        {"common.cache.misses", "count"},
        {"common.cache.hit_ratio", "ratio"},
        {"common.cache.entries", "count"},
        {"common.cache.miss_s", "s"},
        {"common.cache.saved_s", "s"},
        {"common.cache.arch.area.hit_ratio", "ratio"},
        {"common.cache.arch.endurance.hit_ratio", "ratio"},
        {"common.cache.arch.power.hit_ratio", "ratio"},
        {"common.cache.arch.utilization.hit_ratio", "ratio"},
        {"common.cache.circuit.adc.hit_ratio", "ratio"},
        {"common.cache.inca.layer.hit_ratio", "ratio"},
        {"common.cache.inca.run.hit_ratio", "ratio"},
        {"common.cache.ws.layer.hit_ratio", "ratio"},
        {"common.cache.ws.run.hit_ratio", "ratio"},
        {"common.cache.ws.arrays.hit_ratio", "ratio"},
        {"common.cache.serving.batch.hit_ratio", "ratio"},
        {"common.cache.reliability-campaign.hit_ratio", "ratio"},
        {"trace.overhead_s", "s"},
    };
    return defs;
}

namespace {

/** Artifact digest entry; JSON loses its provenance manifest first. */
std::pair<std::string, std::uint64_t>
artifact(const char *name, const std::string &bytes, bool json)
{
    return {name, fnv1a(json ? withoutMember(bytes, "provenance")
                             : bytes)};
}

/** Time @p fn under a span named @p name; returns seconds. */
template <typename Fn>
double
timed(SpanRecorder &spans, const std::string &name, int op, Fn &&fn)
{
    const int id = spans.begin(name, op);
    fn();
    spans.end(id);
    return spans.seconds(id);
}

/** Op id for the decomposition passes' spans. */
constexpr int kComponentOp = 1000;

// ---- serve_diurnal_chaos -------------------------------------------
// The README serve invocation under chaos: diurnal traffic over two
// streams onto four replicas with failures, retries, deadlines and a
// bounded queue.

serving::ServingSpec
serveSpec(std::uint64_t seed)
{
    serving::ServingSpec spec;
    spec.streams = {serving::StreamSpec{"lenet5", 8.0, 0},
                    serving::StreamSpec{"mobilenetv2", 2.0, 1}};
    spec.arrivals.kind = serving::ArrivalKind::Diurnal;
    spec.arrivals.ratePerS = 100e3;
    spec.arrivals.diurnalPeriodS = 1.0;
    spec.arrivals.diurnalDepth = 0.5;
    spec.arrivals.seed = seed;
    spec.durationS = 1.0;
    spec.replicas = 4;
    spec.batch = serving::BatchPolicy{16, 1e-3};
    spec.failures = serving::parseFailureSpec("--failures", "200ms:20ms");
    spec.failures.seed = seed;
    spec.retry = serving::parseRetrySpec("--retry", "3:1ms");
    spec.deadlineS = 50e-3;
    spec.queueCap = 4096;
    spec.sloS = 20e-3;
    return spec;
}

class ServeWorkload : public Workload
{
  public:
    explicit ServeWorkload(std::uint64_t seed) : spec_(serveSpec(seed)) {}

    const char *workUnit() const override { return "request"; }

    void
    operation(SpanRecorder *spans, int op) override
    {
        {
            ScopedSpan s(spans, "serving.simulate", op);
            rep_ = serving::simulate(spec_);
        }
        {
            ScopedSpan s(spans, "serving.reportText", op);
            text_ = serving::reportText(rep_);
        }
        {
            ScopedSpan s(spans, "serving.publishMetrics", op);
            serving::publishMetrics(rep_);
        }
        {
            ScopedSpan s(spans, "serving.reportJson", op);
            json_ = serving::reportJson(rep_);
        }
        {
            ScopedSpan s(spans, "serving.requestsCsv", op);
            csv_ = serving::requestsCsv(rep_);
        }
        {
            ScopedSpan s(spans, "serving.timelineCsv", op);
            timeline_ = serving::timelineCsv(rep_);
        }
    }

    OpResult
    verify() override
    {
        OpResult r;
        r.work = double(rep_.offered);
        r.errors = checkServe(rep_, csv_, json_);
        r.artifacts = {artifact("report.txt", text_, false),
                       artifact("report.json", json_, true),
                       artifact("requests.csv", csv_, false),
                       artifact("timeline.csv", timeline_, false)};
        exportBytes_ = double(text_.size() + json_.size() + csv_.size() +
                              timeline_.size());
        offered_ = rep_.offered;
        rep_ = {};
        text_ = json_ = csv_ = timeline_ = std::string();
        return r;
    }

    std::vector<std::string>
    decompose(SpanRecorder &spans, int tracedOp, const OpTimes &,
              int, LayerMetrics &out) override
    {
        const int op = kComponentOp;
        std::vector<nn::NetworkDesc> nets;
        for (const auto &s : spec_.streams)
            nets.push_back(nn::byName(s.network));
        const int maxBatch = spec_.batch.maxBatch;

        clearAllCaches();
        const double arrivals =
            timed(spans, "serving.generateArrivals", op, [&] {
                serving::generateArrivals(spec_.arrivals,
                                          spec_.durationS);
            });

        // The cost table exactly as simulate() fans it out: one pure
        // cost call per (stream, batch size) slot across the pool.
        clearAllCaches();
        const double costTable =
            timed(spans, "serving.costTable", op, [&] {
                const serving::BatchCostModel model(spec_.inca,
                                                    spec_.shard);
                std::vector<serving::BatchCost> table(
                    nets.size() * std::size_t(maxBatch));
                parallel_for_each(
                    std::int64_t(table.size()), 1, [&](std::int64_t i) {
                        table[std::size_t(i)] = model.cost(
                            nets[std::size_t(i) / std::size_t(maxBatch)],
                            int(std::size_t(i) %
                                std::size_t(maxBatch)) +
                                1);
                    });
            });

        clearAllCaches();
        serving::ServingReport rep;
        const double simulate =
            timed(spans, "serving.simulate", op,
                  [&] { rep = serving::simulate(spec_); });

        // The cost model's lowering and event execution, per slot.
        clearAllCaches();
        double lower = 0.0, execute = 0.0, instrs = 0.0;
        for (const auto &net : nets) {
            for (int b = 1; b <= maxBatch; ++b) {
                ir::Program prog;
                lower += timed(spans, "ir.lowerInca", op, [&] {
                    prog = ir::lowerInca(spec_.inca, net,
                                         arch::Phase::Inference, b,
                                         {/*overlap=*/true});
                });
                instrs += double(prog.instrs.size());
                execute += timed(spans, "event.execute", op,
                                 [&] { event::execute(prog); });
            }
        }

        const double loop = simulate - arrivals - costTable;
        out["serving.arrivals_s"] = arrivals;
        out["serving.cost_table_s"] = costTable;
        out["serving.cost_calls"] = double(nets.size()) * maxBatch;
        out["serving.loop_s"] = loop;
        out["serving.requests"] = double(offered_);
        out["serving.loop_ns_per_req"] = loop / double(offered_) * 1e9;
        out["ir.lower_s"] = lower;
        out["ir.instrs"] = instrs;
        out["event.execute_s"] = execute;
        out["serving.export_csv_s"] =
            spans.opSeconds("serving.requestsCsv", tracedOp);
        out["serving.export_timeline_s"] =
            spans.opSeconds("serving.timelineCsv", tracedOp);
        out["serving.export_json_s"] =
            spans.opSeconds("serving.reportJson", tracedOp) +
            spans.opSeconds("serving.reportText", tracedOp);
        out["serving.export_mb"] = exportBytes_ / (1024.0 * 1024.0);
        out["common.metrics.publish_s"] =
            spans.opSeconds("serving.publishMetrics", tracedOp);
        return {};
    }

  private:
    serving::ServingSpec spec_;
    // The last operation's outputs, until verify() releases them.
    serving::ServingReport rep_;
    std::string text_, json_, csv_, timeline_;
    double exportBytes_ = 0.0;
    std::uint64_t offered_ = 0;
};

// ---- explore_anneal_serving ----------------------------------------
// explore --network resnet50 --strategy anneal --budget 512
//   --objectives energy,latency_timed,p99_latency
//   --arrivals poisson --rate 2k/s --slo-ms 25, default IS space.

dse::ExploreOptions
exploreOptions(std::uint64_t seed)
{
    dse::ExploreOptions opt;
    opt.engine = dse::EngineKind::Inca;
    opt.network = "resnet50";
    opt.strategy = dse::StrategyKind::Anneal;
    opt.seed = seed;
    opt.budget = 512;
    opt.objectives = dse::objectivesByNames("energy,latency_timed,"
                                            "p99_latency");
    opt.serving.arrivals.kind = serving::ArrivalKind::Poisson;
    opt.serving.arrivals.ratePerS = 2e3;
    opt.serving.arrivals.seed = seed;
    opt.serving.sloS = 25e-3;
    return opt;
}

class ExploreWorkload : public Workload
{
  public:
    explicit ExploreWorkload(std::uint64_t seed)
        : options_(exploreOptions(seed))
    {
    }

    const char *workUnit() const override { return "candidate"; }

    void
    operation(SpanRecorder *spans, int op) override
    {
        std::unique_ptr<dse::Explorer> explorer;
        {
            ScopedSpan s(spans, "dse.Explorer", op);
            explorer = std::make_unique<dse::Explorer>(
                dse::defaultSpace(options_.engine), options_);
        }
        {
            ScopedSpan s(spans, "dse.run", op);
            res_ = explorer->run();
        }
        {
            ScopedSpan s(spans, "dse.frontierJson", op);
            json_ = dse::frontierJson(*explorer, res_);
        }
        {
            ScopedSpan s(spans, "dse.frontierCsv", op);
            csv_ = dse::frontierCsv(explorer->space(), res_.frontier,
                                    options_.objectives);
        }
    }

    OpResult
    verify() override
    {
        OpResult r;
        r.work = double(res_.evaluations.size());
        r.errors = checkExplore(res_, options_.budget, json_);
        r.artifacts = {artifact("frontier.json", json_, true),
                       artifact("frontier.csv", csv_, false)};
        proposals_.clear();
        p99_.clear();
        for (const dse::Evaluation &e : res_.evaluations) {
            proposals_.push_back(e.candidate.index);
            p99_.push_back(e.p99LatencyS);
        }
        res_ = {};
        json_ = csv_ = std::string();
        return r;
    }

    std::vector<std::string>
    decompose(SpanRecorder &spans, int tracedOp, const OpTimes &,
              int lanes, LayerMetrics &out) override
    {
        const int op = kComponentOp;
        std::vector<std::string> errors;
        const dse::SearchSpace space = dse::defaultSpace(options_.engine);
        const dse::Explorer explorer(space, options_);
        const nn::NetworkDesc net = nn::byName(options_.network);

        const std::vector<std::uint64_t> &proposals = proposals_;
        std::vector<std::uint64_t> unique = proposals;
        std::sort(unique.begin(), unique.end());
        unique.erase(std::unique(unique.begin(), unique.end()),
                     unique.end());

        // DSE: Σ evaluate over the proposals vs the whole run, 1 lane.
        ThreadPool::setGlobalThreads(1);
        clearAllCaches();
        double evaluate = 0.0;
        for (const std::uint64_t idx : proposals)
            evaluate += timed(spans, "dse.evaluate", op,
                              [&] { explorer.evaluate(idx); });
        clearAllCaches();
        const double run1 = timed(spans, "dse.run", op, [&] {
            dse::Explorer(space, options_).run();
        });
        ThreadPool::setGlobalThreads(lanes);

        // Engine, lowering and event layers per proposal, as evaluate
        // calls them (the engine only once per distinct config, cold).
        std::vector<arch::IncaConfig> configs;
        for (const std::uint64_t idx : proposals)
            configs.push_back(dse::materializeInca(
                space, space.candidate(idx), options_.baseInca,
                options_.isoCapacity));
        clearAllCaches();
        double engine = 0.0;
        for (const std::uint64_t idx : unique) {
            const arch::IncaConfig cfg = dse::materializeInca(
                space, space.candidate(idx), options_.baseInca,
                options_.isoCapacity);
            engine += timed(spans, "inca.inference", op, [&] {
                core::IncaEngine(cfg).inference(net, cfg.batchSize);
            });
        }
        clearAllCaches();
        double lower = 0.0, execute = 0.0, analyze = 0.0, instrs = 0.0;
        for (const arch::IncaConfig &cfg : configs) {
            ir::Program prog;
            lower += timed(spans, "ir.lowerInca", op, [&] {
                prog = ir::lowerInca(cfg, net, options_.phase,
                                     cfg.batchSize, {/*overlap=*/true});
            });
            instrs += double(prog.instrs.size());
            event::TimedRun run;
            execute += timed(spans, "event.execute", op,
                             [&] { run = event::execute(prog); });
            event::AnalyzeOptions aopts;
            aopts.runWhatIf = false;
            analyze += timed(spans, "event.analyze", op,
                             [&] { event::analyze(prog, run, aopts); });
        }

        // Serving layer: each proposal's simulation, with the cost
        // table priced once per distinct chip (cold), as in the run.
        const auto &scenario = options_.serving;
        clearAllCaches();
        double costTable = 0.0, costCalls = 0.0;
        for (const std::uint64_t idx : unique) {
            const serving::ServingSpec spec =
                servingSpec(space, space.candidate(idx));
            costCalls += spec.batch.maxBatch;
            // Fanned out across the pool, as simulate() builds it.
            costTable += timed(spans, "serving.costTable", op, [&] {
                const serving::BatchCostModel model(spec.inca,
                                                    spec.shard);
                parallel_for_each(spec.batch.maxBatch, 1,
                                  [&](std::int64_t i) {
                                      model.cost(net, int(i) + 1);
                                  });
            });
        }
        double arrivals = 0.0;
        for (std::size_t i = 0; i < proposals.size(); ++i)
            arrivals += timed(spans, "serving.generateArrivals", op, [&] {
                serving::generateArrivals(scenario.arrivals,
                                          scenario.durationS);
            });
        clearAllCaches();
        double simulate = 0.0, requests = 0.0;
        for (std::size_t i = 0; i < proposals.size(); ++i) {
            const serving::ServingSpec spec =
                servingSpec(space, space.candidate(proposals[i]));
            serving::ServingReport rep;
            simulate += timed(spans, "serving.simulate", op,
                              [&] { rep = serving::simulate(spec); });
            requests += double(rep.offered);
            if (rep.p99S != p99_[i])
                errors.push_back(
                    "explore: re-simulated p99 of proposal " +
                    std::to_string(i) + " differs from the run's");
        }

        const double loop = simulate - arrivals - costTable;
        out["dse.evaluate_s"] = evaluate;
        out["dse.bookkeeping_s"] = run1 - evaluate;
        out["dse.candidates"] = double(proposals.size());
        out["dse.unique"] = double(unique.size());
        out["dse.export_s"] =
            spans.opSeconds("dse.frontierJson", tracedOp) +
            spans.opSeconds("dse.frontierCsv", tracedOp);
        out["inca.run_s"] = engine;
        out["ir.lower_s"] = lower;
        out["ir.instrs"] = instrs;
        out["event.execute_s"] = execute;
        out["event.analyze_s"] = analyze;
        out["serving.arrivals_s"] = arrivals;
        out["serving.cost_table_s"] = costTable;
        out["serving.cost_calls"] = costCalls;
        out["serving.loop_s"] = loop;
        out["serving.requests"] = requests;
        out["serving.loop_ns_per_req"] =
            requests > 0.0 ? loop / requests * 1e9 : 0.0;
        return errors;
    }

  private:
    /**
     * The serving spec Explorer scores candidate @p cand under: the
     * scenario with the candidate's chip and any datacenter axes.
     * Mirrors the explorer's own construction; decompose() checks
     * every re-simulated p99 against the run's to keep them in step.
     */
    serving::ServingSpec
    servingSpec(const dse::SearchSpace &space,
                const dse::Candidate &cand) const
    {
        const auto &s = options_.serving;
        serving::ServingSpec spec;
        spec.incaEngine = true;
        spec.inca = dse::materializeInca(space, cand, options_.baseInca,
                                         options_.isoCapacity);
        spec.streams = {serving::StreamSpec{options_.network, 1.0, 0}};
        spec.arrivals = s.arrivals;
        spec.durationS = s.durationS;
        spec.shard = s.shard;
        spec.batch = s.batch;
        spec.sloS = s.sloS;
        spec.replicas = int(space.value(cand, "replicas", s.replicas));
        spec.batch.maxBatch = int(
            space.value(cand, "serve_batch", s.batch.maxBatch));
        spec.shard.kind = serving::ShardKind(space.value(
            cand, "shard", std::int64_t(s.shard.kind)));
        spec.shard.chips =
            int(space.value(cand, "shard_chips", s.shard.chips));
        spec.failures = s.failures;
        spec.retry = s.retry;
        spec.deadlineS = s.deadlineS;
        spec.hedgeDelayS = s.hedgeDelayS;
        spec.queueCap = s.queueCap;
        return spec;
    }

    dse::ExploreOptions options_;
    // The last operation's outputs, until verify() releases them.
    dse::ExploreResult res_;
    std::string json_, csv_;
    /** The last verified operation's proposals, in order, and their
     *  p99s (what decompose() re-derives its inputs from). */
    std::vector<std::uint64_t> proposals_;
    std::vector<double> p99_;
};

// ---- campaign_resnet18 ---------------------------------------------
// fault_campaign --network resnet18 --trials 1000: both engines, the
// default three BER and three lifetime points.

reliability::CampaignOptions
campaignOptions(std::uint64_t seed)
{
    reliability::CampaignOptions opt;
    opt.network = "resnet18";
    opt.trials = 1000;
    opt.fault.seed = seed;
    return opt;
}

class CampaignWorkload : public Workload
{
  public:
    explicit CampaignWorkload(std::uint64_t seed)
        : options_(campaignOptions(seed))
    {
    }

    const char *workUnit() const override { return "trial"; }

    std::size_t
    points() const
    {
        const std::size_t engines =
            std::size_t(options_.runInca) + std::size_t(options_.runWs);
        return engines *
               (options_.bers.size() + options_.lifetimes.size());
    }

    void
    operation(SpanRecorder *spans, int op) override
    {
        {
            ScopedSpan s(spans, "reliability.runCampaign", op);
            res_ = reliability::runCampaign(options_);
        }
        {
            ScopedSpan s(spans, "reliability.campaignCsv", op);
            csv_ = reliability::campaignCsv(res_);
        }
        {
            ScopedSpan s(spans, "reliability.campaignJson", op);
            json_ = reliability::campaignJson(res_);
        }
    }

    OpResult
    verify() override
    {
        OpResult r;
        r.work = double(res_.trialsRun);
        r.errors = checkCampaign(res_, points(), options_.trials, json_);
        r.artifacts = {artifact("campaign.csv", csv_, false),
                       artifact("campaign.json", json_, true)};
        last_ = std::move(res_);
        res_ = {};
        csv_ = json_ = std::string();
        return r;
    }

    std::vector<std::string>
    decompose(SpanRecorder &spans, int, const OpTimes &times, int lanes,
              LayerMetrics &out) override
    {
        const int op = kComponentOp;
        std::vector<std::string> errors;
        const nn::NetworkDesc net = nn::byName(options_.network);

        // One-point campaigns at 1 lane: the unit the pool fans out.
        ThreadPool::setGlobalThreads(1);
        std::vector<double> pointS;
        double incaSum = 0.0, wsSum = 0.0;
        int incaN = 0, wsN = 0;
        for (const auto &curve : last_.curves) {
            const bool isInca = curve.engine == "inca";
            for (const auto &p : curve.points) {
                reliability::CampaignOptions one = options_;
                one.runInca = isInca;
                one.runWs = !isInca;
                one.bers.clear();
                one.lifetimes.clear();
                (p.sweep == "ber" ? one.bers : one.lifetimes)
                    .push_back(p.x);
                clearAllCaches();
                reliability::CampaignResult res;
                const double t = timed(
                    spans, "reliability.point", op,
                    [&] { res = reliability::runCampaign(one); });
                pointS.push_back(t);
                (isInca ? incaSum : wsSum) += t;
                (isInca ? incaN : wsN) += 1;
                const auto &q = res.curves.at(0).points.at(0);
                if (q.accuracy != p.accuracy ||
                    q.residualBer != p.residualBer)
                    errors.push_back("campaign: one-point " +
                                     curve.engine + " " + p.sweep +
                                     " result differs from the run's");
            }
        }
        ThreadPool::setGlobalThreads(lanes);

        // The IS engine run every IS point charges mitigation onto,
        // and the lowering it consumes (overlap off, as the engine
        // lowers), each cold.
        clearAllCaches();
        const double engine = timed(spans, "inca.inference", op, [&] {
            core::IncaEngine(options_.inca)
                .inference(net, options_.inca.batchSize);
        });
        clearAllCaches();
        ir::Program prog;
        const double lower = timed(spans, "ir.lowerInca", op, [&] {
            prog = ir::lowerInca(options_.inca, net, options_.phase,
                                 options_.inca.batchSize);
        });

        // The trial loop's two kernels, on every point's fault model:
        // sampling a stuck-cell map and streaming a pattern through
        // the write-verify + remap pipeline.
        constexpr int kTrials = 8;
        double sampleS = 0.0, writeS = 0.0;
        int calls = 0;
        for (const auto &curve : last_.curves) {
            const bool isInca = curve.engine == "inca";
            const int size = isInca ? options_.inca.subarraySize
                                    : options_.ws.subarraySize;
            for (const auto &p : curve.points) {
                reliability::FaultSpec spec = options_.fault;
                double writesPerCell = 0.0;
                if (p.sweep == "ber") {
                    spec.hardBer0 = p.x;
                } else {
                    const arch::EnduranceReport er =
                        isInca ? arch::incaEndurance(
                                     net, options_.inca,
                                     options_.inca.batchSize,
                                     spec.endurance)
                               : arch::baselineEndurance(
                                     net, options_.ws,
                                     options_.ws.batchSize,
                                     spec.endurance);
                    writesPerCell = er.writesPerCellPerIteration * p.x;
                }
                const reliability::FaultModel model(spec, writesPerCell);
                for (int t = 0; t < kTrials; ++t) {
                    reliability::FaultMap map;
                    sampleS += timed(
                        spans, "reliability.FaultModel.sample", op, [&] {
                            map = model.sample(size, size,
                                               std::uint64_t(t) + 1);
                        });
                    reliability::RemappedPlane plane(
                        size, options_.mitigation);
                    reliability::applyFaults(map, plane.plane());
                    Rng rng(std::uint64_t(t) + 1);
                    writeS += timed(
                        spans, "reliability.RemappedPlane.write", op,
                        [&] {
                            for (int rr = 0; rr < size; ++rr)
                                for (int c = 0; c < size; ++c)
                                    plane.write(rr, c, rng.below(2) != 0,
                                                &rng, model.softRate());
                        });
                    ++calls;
                }
            }
        }

        double mean = 0.0, slowest = 0.0;
        for (const double t : pointS) {
            mean += t / double(pointS.size());
            slowest = std::max(slowest, t);
        }
        out["reliability.trial_us"] =
            times.oneLane / double(last_.trialsRun) * 1e6;
        out["reliability.point_inca_s"] = incaN ? incaSum / incaN : 0.0;
        out["reliability.point_ws_s"] = wsN ? wsSum / wsN : 0.0;
        out["reliability.point_skew"] = mean > 0.0 ? slowest / mean : 0.0;
        out["reliability.sample_us"] = sampleS / calls * 1e6;
        out["reliability.write_us"] = writeS / calls * 1e6;
        out["inca.run_s"] = engine;
        out["ir.lower_s"] = lower;
        out["ir.instrs"] = double(prog.instrs.size());
        return errors;
    }

  private:
    reliability::CampaignOptions options_;
    // The last operation's outputs, until verify() releases them.
    reliability::CampaignResult res_;
    std::string csv_, json_;
    /** The last verified result (what decompose() re-derives from). */
    reliability::CampaignResult last_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "serve_diurnal_chaos", "explore_anneal_serving",
        "campaign_resnet18"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "serve_diurnal_chaos")
        return std::make_unique<ServeWorkload>(seed);
    if (name == "explore_anneal_serving")
        return std::make_unique<ExploreWorkload>(seed);
    if (name == "campaign_resnet18")
        return std::make_unique<CampaignWorkload>(seed);
    return nullptr;
}

} // namespace bench
} // namespace inca
