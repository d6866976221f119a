#include "reliability/campaign.hh"

#include <cmath>
#include <sstream>

#include "arch/endurance.hh"
#include "baseline/engine.hh"
#include "common/cache.hh"
#include "common/export_util.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/thread_pool.hh"
#include "common/trace.hh"
#include "dse/objectives.hh"
#include "inca/engine.hh"
#include "nn/model_zoo.hh"

namespace inca {
namespace reliability {

namespace {

/** One (engine, sweep, x) evaluation request. */
struct PointJob
{
    bool isInca = true;
    std::string sweep; ///< "ber" or "lifetime"
    double x = 0.0;
};

/**
 * Trials per fan-out. The outcome slots hold points x this many, so
 * a campaign's memory does not grow with its trial count.
 */
constexpr std::int64_t kTrialBlock = 256;

/** Mix a trial index into a stream base (splitmix64 finalizer). */
std::uint64_t
mixStream(std::uint64_t base, std::uint64_t t)
{
    std::uint64_t z = base + (t + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * A point's trial-invariant state, set up serially before its trials
 * fan out: the fault model at the point's wear, the stream base its
 * trials draw from, and the point's identity and rates.
 */
struct PointSetup
{
    FaultModel model;
    std::uint64_t streamBase;
    dse::EngineKind kind;
    int arraySize;
    int adcBits;
    int activationBits;
    CampaignPoint point;
};

PointSetup
setUpPoint(const CampaignOptions &opt, const PointJob &job,
           const nn::NetworkDesc &net, int maxWindow)
{
    CampaignPoint point;
    point.sweep = job.sweep;
    point.x = job.x;

    // Resolve the raw fault rates. A "ber" point pins the stuck rate
    // directly (fresh device otherwise); a "lifetime" point derives
    // everything from wear: iterations x writes-per-cell-per-iteration
    // against the endurance rating.
    FaultSpec spec = opt.fault;
    if (job.sweep == "ber") {
        spec.hardBer0 = job.x;
        point.writesPerCell = 0.0;
    } else {
        const arch::EnduranceReport report =
            job.isInca
                ? arch::incaEndurance(net, opt.inca,
                                      opt.inca.batchSize,
                                      spec.endurance)
                : arch::baselineEndurance(net, opt.ws,
                                          opt.ws.batchSize,
                                          spec.endurance);
        point.writesPerCell =
            report.writesPerCellPerIteration * job.x;
    }
    const FaultModel model(spec, point.writesPerCell);
    const dse::EngineKind kind =
        job.isInca ? dse::EngineKind::Inca : dse::EngineKind::Ws;
    const int adcBits = job.isInca ? opt.inca.adcBits : opt.ws.adcBits;
    point.wear = model.wear();
    point.hardBer = model.stuckRate();
    point.softBer = model.softRate();
    point.driftSigma = model.driftSigma();
    point.idealAccuracy =
        dse::accuracyProxy(kind, adcBits, maxWindow, opt.noiseSigma);

    // Stream base: a content hash of the point's identity, so every
    // trial is reproducible regardless of evaluation order.
    CacheKey streamKey;
    streamKey.add(job.isInca ? "inca" : "ws");
    streamKey.add(job.sweep);
    streamKey.add(job.x);
    streamKey.add(spec.seed);
    return {model,
            streamKey.hash(),
            kind,
            job.isInca ? opt.inca.subarraySize : opt.ws.subarraySize,
            adcBits,
            job.isInca ? opt.inca.activationBits
                       : opt.ws.activationBits,
            point};
}

/** What one Monte-Carlo trial hands its point's reduction. */
struct TrialOutcome
{
    double accuracy = 0.0;
    double residual = 0.0; ///< residual bit-error rate
    double pulses = 0.0;   ///< write pulses per cell
    int spareRows = 0;
    int spareCols = 0;
    bool exhausted = false;
};

/**
 * Trial @p t of a point: sample a stuck-cell map, write a random
 * pattern through the mitigation pipeline, and score the residual
 * errors. A pure function of (options, point, t).
 */
TrialOutcome
runTrial(const CampaignOptions &opt, const PointSetup &s,
         int maxWindow, std::int64_t t)
{
    const std::uint64_t stream = std::uint64_t(t);
    RemappedPlane array(s.arraySize, opt.mitigation);
    applyFaults(s.model.sample(s.arraySize, s.arraySize,
                               mixStream(s.streamBase, stream)),
                array.plane());
    Rng dataRng(mixStream(s.streamBase ^ 0x5ca1ab1e0ddba11ULL, stream));
    array.writeRandomPattern(dataRng, s.point.softBer);

    const double cells = double(s.arraySize) * double(s.arraySize);
    TrialOutcome out;
    out.residual = double(array.residualErrors()) / cells;
    const double sigma = opt.noiseSigma + s.point.driftSigma +
                         faultNoiseSigma(out.residual, s.activationBits);
    out.accuracy = dse::accuracyProxy(s.kind, s.adcBits, maxWindow,
                                      sigma);
    out.pulses = double(array.pulses()) / cells;
    out.spareRows = array.table().usedSpareRows();
    out.spareCols = array.table().usedSpareCols();
    out.exhausted = array.table().residualFaults() > 0;
    return out;
}

/** A point's running trial sums, folded in trial order. */
struct TrialSums
{
    double accuracy = 0.0, residual = 0.0, pulses = 0.0;
    double spareRows = 0.0, spareCols = 0.0;
    int exhausted = 0;
    double accuracyMin = 0.0, accuracyMax = 0.0;

    void
    add(const TrialOutcome &o, std::int64_t t)
    {
        accuracy += o.accuracy;
        residual += o.residual;
        pulses += o.pulses;
        spareRows += double(o.spareRows);
        spareCols += double(o.spareCols);
        if (o.exhausted)
            ++exhausted;
        if (t == 0) {
            accuracyMin = accuracyMax = o.accuracy;
        } else {
            accuracyMin = std::min(accuracyMin, o.accuracy);
            accuracyMax = std::max(accuracyMax, o.accuracy);
        }
    }
};

/** @p s's point with the trial means of its @p trials sums. */
CampaignPoint
finishedPoint(const PointSetup &s, const TrialSums &sums, int trials)
{
    CampaignPoint p = s.point;
    p.accuracy = sums.accuracy / double(trials);
    p.accuracyMin = sums.accuracyMin;
    p.accuracyMax = sums.accuracyMax;
    p.residualBer = sums.residual / double(trials);
    p.faultSigma = faultNoiseSigma(p.residualBer, s.activationBits);
    p.pulsesPerWrite = sums.pulses / double(trials);
    p.meanSpareRowsUsed = sums.spareRows / double(trials);
    p.meanSpareColsUsed = sums.spareCols / double(trials);
    p.exhaustedFraction = double(sums.exhausted) / double(trials);
    return p;
}

/** One engine's run of the campaign's network, without mitigation. */
arch::RunCost
idealRun(const CampaignOptions &opt, bool isInca,
         const nn::NetworkDesc &net)
{
    const bool training = opt.phase == arch::Phase::Training;
    if (isInca) {
        const core::IncaEngine engine(opt.inca);
        return training ? engine.training(net, opt.inca.batchSize)
                        : engine.inference(net, opt.inca.batchSize);
    }
    const baseline::BaselineEngine engine(opt.ws);
    return training ? engine.training(net, opt.ws.batchSize)
                    : engine.inference(net, opt.ws.batchSize);
}

void
pointJson(std::ostringstream &os, const CampaignPoint &p)
{
    os << "{\"sweep\": \"" << p.sweep << "\", \"x\": " << num17(p.x)
       << ", \"writes_per_cell\": " << num17(p.writesPerCell)
       << ", \"wear\": " << num17(p.wear)
       << ", \"hard_ber\": " << num17(p.hardBer)
       << ", \"soft_ber\": " << num17(p.softBer)
       << ", \"drift_sigma\": " << num17(p.driftSigma)
       << ", \"residual_ber\": " << num17(p.residualBer)
       << ", \"fault_sigma\": " << num17(p.faultSigma)
       << ", \"accuracy\": " << num17(p.accuracy)
       << ", \"accuracy_min\": " << num17(p.accuracyMin)
       << ", \"accuracy_max\": " << num17(p.accuracyMax)
       << ", \"ideal_accuracy\": " << num17(p.idealAccuracy)
       << ", \"spare_rows_used\": " << num17(p.meanSpareRowsUsed)
       << ", \"spare_cols_used\": " << num17(p.meanSpareColsUsed)
       << ", \"exhausted_fraction\": " << num17(p.exhaustedFraction)
       << ", \"pulses_per_write\": " << num17(p.pulsesPerWrite)
       << ", \"energy_j\": " << num17(p.energyJ)
       << ", \"latency_s\": " << num17(p.latencyS)
       << ", \"ideal_energy_j\": " << num17(p.idealEnergyJ)
       << ", \"ideal_latency_s\": " << num17(p.idealLatencyS) << "}";
}

} // namespace

CampaignResult
runCampaign(const CampaignOptions &opt)
{
    if (!opt.runInca && !opt.runWs)
        fatal("fault campaign needs at least one engine "
              "(--engine inca, ws, or both)");
    if (opt.trials < 1)
        fatal("fault campaign needs at least one trial per point, "
              "got %d", opt.trials);
    if (opt.bers.empty() && opt.lifetimes.empty())
        fatal("fault campaign needs at least one sweep point "
              "(--bers or --lifetimes)");
    // The negated comparisons reject NaN too.
    for (const double ber : opt.bers)
        if (!(ber >= 0.0 && ber <= 1.0))
            fatal("fault campaign BERs must be in [0, 1], got %g "
                  "(--bers)", ber);
    for (const double life : opt.lifetimes)
        if (!(life >= 0.0 && std::isfinite(life)))
            fatal("fault campaign lifetimes must be finite iteration "
                  "counts >= 0, got %g (--lifetimes)", life);
    if (!(opt.noiseSigma >= 0.0))
        fatal("fault campaign noise sigma must be >= 0, got %g "
              "(--sigma)", opt.noiseSigma);

    trace::Span campaignSpan("reliability.campaign");
    const nn::NetworkDesc net = nn::byName(opt.network);
    const int maxWindow = dse::maxConvWindow(net);

    // Engine-major, BER-sweep-first job order: the fixed assembly
    // order of the curves.
    std::vector<PointJob> jobs;
    for (const bool isInca : {true, false}) {
        if ((isInca && !opt.runInca) || (!isInca && !opt.runWs))
            continue;
        for (const double ber : opt.bers)
            jobs.push_back({isInca, "ber", ber});
        for (const double life : opt.lifetimes)
            jobs.push_back({isInca, "lifetime", life});
    }
    std::vector<PointSetup> points;
    points.reserve(jobs.size());
    for (const PointJob &job : jobs)
        points.push_back(setUpPoint(opt, job, net, maxWindow));

    // Fan (point, trial) pairs across the ThreadPool, one block of
    // trials at a time, into pre-sized slots; each slot is a pure
    // function of (options, point, trial), so contents never depend
    // on scheduling. Slots are trial-major, so every pool chunk mixes
    // the cheap IS trials with the dear WS ones. Each point then
    // folds its block serially in trial order: the sums run in the
    // same order at any thread count.
    const std::int64_t trials = opt.trials;
    const std::int64_t nPoints = std::int64_t(points.size());
    std::vector<TrialSums> sums(points.size());
    std::vector<TrialOutcome> slots(
        std::size_t(nPoints * std::min(trials, kTrialBlock)));
    for (std::int64_t first = 0; first < trials; first += kTrialBlock) {
        const std::int64_t block = std::min(kTrialBlock, trials - first);
        parallel_for_each(block * nPoints, 1, [&](std::int64_t i) {
            slots[std::size_t(i)] =
                runTrial(opt, points[std::size_t(i % nPoints)],
                         maxWindow, first + i / nPoints);
        });
        for (std::int64_t p = 0; p < nPoints; ++p)
            for (std::int64_t k = 0; k < block; ++k)
                sums[std::size_t(p)].add(
                    slots[std::size_t(k * nPoints + p)], first + k);
    }

    // Mitigation cost: every point of an engine charges write-verify
    // pulses onto the same ideal run, so each engine runs once.
    arch::RunCost incaRun, wsRun;
    if (opt.runInca)
        incaRun = idealRun(opt, true, net);
    if (opt.runWs)
        wsRun = idealRun(opt, false, net);

    CampaignResult result;
    result.options = opt;
    auto &trialCtr = metrics::counter("reliability.trials");
    auto &pointCtr = metrics::counter("reliability.points");
    auto &exhaustedCtr =
        metrics::counter("reliability.exhausted_points");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const bool isInca = jobs[i].isInca;
        CampaignPoint point =
            finishedPoint(points[i], sums[i], opt.trials);
        arch::RunCost run = isInca ? incaRun : wsRun;
        point.idealEnergyJ = run.energy();
        point.idealLatencyS = run.latency;
        applyWriteVerify(
            run, opt.mitigation, point.softBer, point.hardBer,
            isInca ? opt.inca.device : opt.ws.device,
            double(isInca ? opt.inca.org.totalSubarrays()
                          : opt.ws.org.totalSubarrays()));
        point.energyJ = run.energy();
        point.latencyS = run.latency;

        const std::string engine = isInca ? "inca" : "ws";
        if (result.curves.empty() ||
            result.curves.back().engine != engine) {
            result.curves.push_back({engine, {}});
        }
        result.curves.back().points.push_back(point);
        result.trialsRun += std::uint64_t(opt.trials);
        pointCtr.inc();
        trialCtr.inc(std::uint64_t(opt.trials));
        if (point.exhaustedFraction > 0.0)
            exhaustedCtr.inc();
    }
    return result;
}

std::string
campaignCsv(const CampaignResult &result)
{
    std::ostringstream os;
    os << "engine,sweep,x,writes_per_cell,wear,hard_ber,soft_ber,"
          "drift_sigma,residual_ber,fault_sigma,accuracy,"
          "accuracy_min,accuracy_max,ideal_accuracy,spare_rows_used,"
          "spare_cols_used,exhausted_fraction,pulses_per_write,"
          "energy_j,latency_s,ideal_energy_j,ideal_latency_s\n";
    for (const CampaignCurve &curve : result.curves) {
        for (const CampaignPoint &p : curve.points) {
            os << curve.engine << "," << p.sweep << "," << num17(p.x)
               << "," << num17(p.writesPerCell) << ","
               << num17(p.wear) << "," << num17(p.hardBer) << ","
               << num17(p.softBer) << "," << num17(p.driftSigma)
               << "," << num17(p.residualBer) << ","
               << num17(p.faultSigma) << "," << num17(p.accuracy)
               << "," << num17(p.accuracyMin) << ","
               << num17(p.accuracyMax) << ","
               << num17(p.idealAccuracy) << ","
               << num17(p.meanSpareRowsUsed) << ","
               << num17(p.meanSpareColsUsed) << ","
               << num17(p.exhaustedFraction) << ","
               << num17(p.pulsesPerWrite) << "," << num17(p.energyJ)
               << "," << num17(p.latencyS) << ","
               << num17(p.idealEnergyJ) << ","
               << num17(p.idealLatencyS) << "\n";
        }
    }
    return os.str();
}

std::string
campaignJson(const CampaignResult &result)
{
    const CampaignOptions &opt = result.options;
    std::ostringstream os;
    os << "{\n";
    os << "  \"kind\": \"reliability.campaign\",\n";
    os << "  \"network\": \"" << jsonEscape(opt.network) << "\",\n";
    os << "  \"phase\": \""
       << (opt.phase == arch::Phase::Training ? "training"
                                              : "inference")
       << "\",\n";
    os << "  \"trials\": " << opt.trials << ",\n";
    os << "  \"noise_sigma\": " << num17(opt.noiseSigma) << ",\n";
    os << "  \"fault\": {\"hard_ber0\": " << num17(opt.fault.hardBer0)
       << ", \"hard_ber_wear\": " << num17(opt.fault.hardBerWear)
       << ", \"soft_ber0\": " << num17(opt.fault.softBer0)
       << ", \"soft_ber_wear\": " << num17(opt.fault.softBerWear)
       << ", \"wear_shape\": " << num17(opt.fault.wearShape)
       << ", \"drift_sigma_wear\": "
       << num17(opt.fault.driftSigmaWear)
       << ", \"endurance\": " << num17(opt.fault.endurance)
       << ", \"seed\": " << opt.fault.seed << "},\n";
    os << "  \"mitigation\": {\"write_verify_retries\": "
       << opt.mitigation.writeVerifyRetries
       << ", \"spare_rows\": " << opt.mitigation.spareRows
       << ", \"spare_cols\": " << opt.mitigation.spareCols << "},\n";
    os << "  \"trials_run\": " << result.trialsRun << ",\n";
    // The same run-provenance manifest the DSE frontier embeds; the
    // fault seed picks every trial's stream, so it names the run.
    os << "  \"provenance\": {\n"
       << provenanceJson("\"fault_seed\": " +
                             std::to_string(opt.fault.seed),
                         "    ")
       << "  },\n";
    os << "  \"curves\": [\n";
    for (std::size_t c = 0; c < result.curves.size(); ++c) {
        const CampaignCurve &curve = result.curves[c];
        os << "    {\"engine\": \"" << curve.engine
           << "\", \"points\": [\n";
        for (std::size_t i = 0; i < curve.points.size(); ++i) {
            os << "      ";
            pointJson(os, curve.points[i]);
            os << (i + 1 < curve.points.size() ? "," : "") << "\n";
        }
        os << "    ]}"
           << (c + 1 < result.curves.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

} // namespace reliability
} // namespace inca
