/**
 * @file
 * The reliability engine: wear -> BER curves, deterministic fault
 * sampling, write-verify retry and spare-line remapping (including
 * ~300 seeded property cases), mitigation cost accounting, campaign
 * determinism across thread counts and cache states plus its pinned
 * bytes, and the DSE resilience objective / min_accuracy_at_ber
 * constraint wiring.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "baseline/crossbar.hh"
#include "common/cache.hh"
#include "common/env.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "dse/constraints.hh"
#include "dse/explorer.hh"
#include "dse/journal.hh"
#include "dse/objectives.hh"
#include "driver_specs.hh"
#include "inca/engine.hh"
#include "json_lint.hh"
#include "nn/model_zoo.hh"
#include "reliability/campaign.hh"

extern "C" char **environ;

namespace inca {
namespace reliability {
namespace {

// ---------------------------------------------------------------------
// Wear -> BER model
// ---------------------------------------------------------------------

TEST(WearModel, RatesGrowMonotonicallyWithWrites)
{
    FaultSpec spec;
    double lastHard = -1.0, lastSoft = -1.0, lastDrift = -1.0;
    for (const double writes :
         {0.0, 1e6, 1e8, 5e8, 1e9, 2e9, 1e10}) {
        const FaultModel model(spec, writes);
        EXPECT_GE(model.stuckRate(), lastHard);
        EXPECT_GE(model.softRate(), lastSoft);
        EXPECT_GE(model.driftSigma(), lastDrift);
        lastHard = model.stuckRate();
        lastSoft = model.softRate();
        lastDrift = model.driftSigma();
    }
}

TEST(WearModel, FreshDeviceSitsAtBaseRateAndRatesClampAtHalf)
{
    FaultSpec spec;
    const FaultModel fresh(spec, 0.0);
    EXPECT_DOUBLE_EQ(fresh.stuckRate(), spec.hardBer0);
    EXPECT_DOUBLE_EQ(fresh.softRate(), spec.softBer0);
    EXPECT_DOUBLE_EQ(fresh.driftSigma(), 0.0);

    // Far beyond the rating the curve explodes but the probability
    // stays a probability.
    const FaultModel dead(spec, 1e15);
    EXPECT_DOUBLE_EQ(dead.stuckRate(), 0.5);
    EXPECT_DOUBLE_EQ(dead.softRate(), 0.5);
    EXPECT_DOUBLE_EQ(dead.driftSigma(), spec.driftSigmaWear);
}

TEST(WearModel, RetryMathIsMonotone)
{
    // Residual soft error shrinks geometrically with the budget;
    // expected pulses grow with it. 0 retries = the raw rate.
    const double p = 0.05;
    EXPECT_DOUBLE_EQ(residualSoftBer(p, 0), p);
    double lastResidual = 2.0, lastPulses = 0.0;
    for (const int retries : {0, 1, 2, 4, 8}) {
        const double residual = residualSoftBer(p, retries);
        const double pulses = expectedWritePulses(p, retries);
        EXPECT_LT(residual, lastResidual);
        EXPECT_GT(pulses, lastPulses);
        lastResidual = residual;
        lastPulses = pulses;
    }
}

TEST(WearModel, FaultNoiseSigmaBridgesBerToNoise)
{
    EXPECT_DOUBLE_EQ(faultNoiseSigma(0.0, 8), 0.0);
    EXPECT_DOUBLE_EQ(faultNoiseSigma(1e-3, 0), 0.0);
    // More residual errors, more equivalent noise.
    EXPECT_GT(faultNoiseSigma(1e-2, 8), faultNoiseSigma(1e-4, 8));
    // A full-rate residual on 8-bit values is a huge disturbance.
    EXPECT_GT(faultNoiseSigma(0.5, 8), 0.1);
}

// ---------------------------------------------------------------------
// Deterministic fault sampling
// ---------------------------------------------------------------------

TEST(FaultSampling, SameStreamSameMapDifferentStreamDifferentMap)
{
    FaultSpec spec;
    spec.hardBer0 = 0.05; // high enough that maps are non-trivial
    const FaultModel model(spec, 0.0);
    const FaultMap a = model.sample(32, 32, 7);
    const FaultMap b = model.sample(32, 32, 7);
    EXPECT_EQ(a.stuck, b.stuck);
    EXPECT_GT(a.stuckCount, 0);
    const FaultMap c = model.sample(32, 32, 8);
    EXPECT_NE(a.stuck, c.stuck);
}

TEST(FaultSampling, AppliesToBothArrayFlavors)
{
    FaultSpec spec;
    spec.hardBer0 = 0.2;
    const FaultModel model(spec, 0.0);
    const FaultMap map = model.sample(16, 16, 1);
    ASSERT_GT(map.stuckCount, 0);

    core::BitPlane plane(16);
    applyFaults(map, plane);
    EXPECT_EQ(plane.faultCount(), map.stuckCount);

    baseline::WsCrossbar xbar(16, 16);
    applyFaults(map, xbar);
    EXPECT_EQ(xbar.faultCount(), map.stuckCount);
    for (int r = 0; r < 16; ++r) {
        for (int c = 0; c < 16; ++c) {
            if (map.at(r, c) >= 0) {
                EXPECT_EQ(plane.cell(r, c), map.at(r, c) != 0);
                EXPECT_EQ(xbar.cell(r, c), map.at(r, c) != 0);
            }
        }
    }
}

// ---------------------------------------------------------------------
// WS crossbar fault semantics (mirrors the BitPlane suite)
// ---------------------------------------------------------------------

TEST(WsCrossbarFaults, StuckCellsIgnoreProgramming)
{
    baseline::WsCrossbar x(8, 8);
    x.injectStuckAt(2, 3, true);
    EXPECT_TRUE(x.cell(2, 3));
    x.program(2, 3, false);
    EXPECT_TRUE(x.cell(2, 3)); // still stuck high
    x.injectStuckAt(4, 4, false);
    x.program(4, 4, true);
    EXPECT_FALSE(x.cell(4, 4)); // stuck low
    EXPECT_EQ(x.faultCount(), 2);
    x.clearFaults();
    EXPECT_EQ(x.faultCount(), 0);
    EXPECT_TRUE(x.cell(4, 4)); // the program survived underneath
}

TEST(WsCrossbarFaults, MatvecSeesFaults)
{
    baseline::WsCrossbar x(4, 4);
    // A stuck-1 cell contributes current whenever its row is driven.
    x.injectStuckAt(0, 1, true);
    std::vector<std::uint8_t> rows = {1, 0, 0, 0};
    const auto out = x.matvecBits(rows, 8);
    EXPECT_EQ(out[0], 0);
    EXPECT_EQ(out[1], 1);
    // A stuck-0 cell stops contributing even when programmed high.
    x.program(0, 2, true);
    x.injectStuckAt(0, 2, false);
    EXPECT_EQ(x.matvecBits(rows, 8)[2], 0);
}

TEST(WsCrossbarFaultsDeath, OutOfRangeFaultIsFatal)
{
    baseline::WsCrossbar x(4, 4);
    EXPECT_EXIT(x.injectStuckAt(4, 0, true),
                ::testing::ExitedWithCode(1), "outside");
    EXPECT_EXIT(x.injectStuckAt(0, 9, false),
                ::testing::ExitedWithCode(1), "valid rows");
}

// ---------------------------------------------------------------------
// Property tests: remapping and retry (seeded, ~300 cases)
// ---------------------------------------------------------------------

TEST(RemapProperty, ReadsSurviveAnyFaultPatternWithinSpareCapacity)
{
    // 120 seeded cases: any set of stuck cells whose lines fit the
    // spare budget must leave every written bit readable.
    for (std::uint64_t seed = 0; seed < 120; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(kDefaultSeed ^ (seed * 0x9e3779b97f4a7c15ULL));
        const int size = 4 + int(rng.below(13)); // 4..16
        MitigationSpec spec;
        spec.writeVerifyRetries = 1 + int(rng.below(3));
        spec.spareRows = int(rng.below(4));
        spec.spareCols = int(rng.below(4));

        RemappedPlane array(size, spec);
        // Inject faults on distinct rows and distinct columns, at
        // most one per spare line, so the greedy row-first policy is
        // guaranteed to cover them all.
        const int faults =
            int(rng.below(std::uint64_t(
                std::min(spec.spareRows + spec.spareCols, size) + 1)));
        for (int f = 0; f < faults; ++f)
            array.plane().injectStuckAt(f, f, rng.below(2) != 0);

        std::vector<std::uint8_t> want(std::size_t(size) *
                                       std::size_t(size));
        for (int r = 0; r < size; ++r) {
            for (int c = 0; c < size; ++c) {
                const bool bit = rng.below(2) != 0;
                want[std::size_t(r) * std::size_t(size) +
                     std::size_t(c)] = bit ? 1 : 0;
                array.write(r, c, bit);
            }
        }
        EXPECT_EQ(array.residualErrors(), 0);
        EXPECT_LE(array.table().usedSpareRows(), spec.spareRows);
        EXPECT_LE(array.table().usedSpareCols(), spec.spareCols);
        EXPECT_EQ(array.table().residualFaults(), 0);
        for (int r = 0; r < size; ++r)
            for (int c = 0; c < size; ++c)
                ASSERT_EQ(array.read(r, c),
                          want[std::size_t(r) * std::size_t(size) +
                               std::size_t(c)] != 0);
    }
}

TEST(RemapProperty, ExhaustedSparesDegradeGracefully)
{
    // More faulty lines than spares: writes must still complete, the
    // overflow surfaces as residual faults, never an abort.
    MitigationSpec spec;
    spec.writeVerifyRetries = 1;
    spec.spareRows = 1;
    spec.spareCols = 1;
    RemappedPlane array(8, spec);
    for (int d = 0; d < 6; ++d)
        array.plane().injectStuckAt(d, d, true);
    for (int r = 0; r < 8; ++r)
        for (int c = 0; c < 8; ++c)
            array.write(r, c, false);
    EXPECT_EQ(array.table().usedSpareRows(), 1);
    EXPECT_EQ(array.table().usedSpareCols(), 1);
    EXPECT_GT(array.table().residualFaults(), 0);
    EXPECT_GT(array.residualErrors(), 0);
    EXPECT_LE(array.residualErrors(), 4); // the uncovered stuck cells
}

TEST(RemapProperty, RandomPatternSweepMatchesPerCellWrites)
{
    // 100 seeded cases: writeRandomPattern must leave exactly what
    // the row-major write() loop it stands for leaves -- every
    // physical cell, the counters, and the generator's position.
    // Every fifth case writes blind (the campaign default), every
    // tenth uses the WS 128x128 array.
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(kDefaultSeed ^ (seed * 0xbf58476d1ce4e5b9ULL));
        const int size = seed % 10 == 3 ? 128 : 4 + int(rng.below(13));
        MitigationSpec spec;
        if (seed % 5 != 0) {
            spec.writeVerifyRetries = int(rng.below(4));
            spec.spareRows = int(rng.below(4));
            spec.spareCols = int(rng.below(4));
        }
        const double softBers[] = {0.0, 1e-3, 0.2};
        const double softBer = softBers[rng.below(3)];
        FaultSpec faults;
        const double hardBers[] = {0.0, 0.01, 0.1};
        faults.hardBer0 = hardBers[rng.below(3)];
        const FaultMap map =
            FaultModel(faults, 0.0).sample(size, size, seed);

        RemappedPlane perCell(size, spec);
        RemappedPlane sweep(size, spec);
        applyFaults(map, perCell.plane());
        applyFaults(map, sweep.plane());
        Rng a(seed + 1);
        Rng b(seed + 1);
        for (int r = 0; r < size; ++r)
            for (int c = 0; c < size; ++c)
                perCell.write(r, c, a.below(2) != 0, &a, softBer);
        sweep.writeRandomPattern(b, softBer);

        EXPECT_EQ(sweep.pulses(), perCell.pulses());
        EXPECT_EQ(sweep.table().usedSpareRows(),
                  perCell.table().usedSpareRows());
        EXPECT_EQ(sweep.table().usedSpareCols(),
                  perCell.table().usedSpareCols());
        EXPECT_EQ(sweep.table().residualFaults(),
                  perCell.table().residualFaults());
        EXPECT_EQ(sweep.residualErrors(), perCell.residualErrors());
        const int side = sweep.plane().size();
        for (int r = 0; r < side; ++r)
            for (int c = 0; c < side; ++c)
                ASSERT_EQ(sweep.plane().cell(r, c),
                          perCell.plane().cell(r, c))
                    << r << ", " << c;
        for (int r = 0; r < size; ++r)
            for (int c = 0; c < size; ++c)
                ASSERT_EQ(sweep.read(r, c), perCell.read(r, c))
                    << r << ", " << c;
        EXPECT_EQ(b.next(), a.next());
    }
}

TEST(RetryProperty, PulsesMonotoneInBudgetAndSoftErrorsRetryAway)
{
    // 80 seeded cases: a bigger retry budget never issues fewer
    // pulses for the same write stream, and with verify enabled the
    // soft-error stream leaves no residual on healthy cells.
    for (std::uint64_t seed = 0; seed < 80; ++seed) {
        SCOPED_TRACE(seed);
        const int size = 8;
        const double softBer = 0.2;
        std::uint64_t lastPulses = 0;
        for (const int retries : {1, 3, 12}) {
            MitigationSpec spec;
            spec.writeVerifyRetries = retries;
            RemappedPlane array(size, spec);
            Rng rng(seed + 1);
            for (int r = 0; r < size; ++r)
                for (int c = 0; c < size; ++c)
                    array.write(r, c, rng.below(2) != 0, &rng,
                                softBer);
            EXPECT_GE(array.pulses(),
                      std::uint64_t(size) * std::uint64_t(size));
            // A deeper budget retries at least as often in
            // expectation; with a shared seed the draw sequences
            // differ, so compare against the floor rather than the
            // exact shallow-budget count.
            EXPECT_GE(array.pulses() + std::uint64_t(retries) *
                          std::uint64_t(size) * std::uint64_t(size),
                      lastPulses);
            lastPulses = array.pulses();
            // A shallow budget can exhaust on an unlucky cell (the
            // residual soft BER is p^(R+1), not zero), but at 12
            // retries 0.2^13 ~ 8e-10 -- residual-free in practice.
            if (retries >= 12)
                EXPECT_EQ(array.residualErrors(), 0);
        }
    }
}

// ---------------------------------------------------------------------
// Mitigation cost accounting
// ---------------------------------------------------------------------

TEST(WriteVerifyCost, ChargesEnergyAndLatencyIntoTheRun)
{
    const arch::IncaConfig cfg = arch::paperInca();
    const core::IncaEngine engine(cfg);
    const nn::NetworkDesc net = nn::lenet5();
    const arch::RunCost ideal = engine.inference(net, 4);

    MitigationSpec spec;
    spec.writeVerifyRetries = 2;
    arch::RunCost run = ideal;
    const WriteVerifyCost cost = applyWriteVerify(
        run, spec, 1e-3, 1e-3, cfg.device,
        double(cfg.org.totalSubarrays()));
    EXPECT_GT(cost.extraEnergy, 0.0);
    EXPECT_GT(cost.extraLatency, 0.0);
    EXPECT_GT(run.energy(), ideal.energy());
    EXPECT_GT(run.latency, ideal.latency);
    // The surcharge is itemized in the stats, not smeared.
    double verifyEnergy = 0.0;
    for (const auto &layer : run.layers)
        verifyEnergy +=
            layer.stats.sum(statPrefix("energy.reliability"));
    EXPECT_DOUBLE_EQ(verifyEnergy, cost.extraEnergy);
}

TEST(WriteVerifyCost, DisabledMitigationIsFree)
{
    const arch::IncaConfig cfg = arch::paperInca();
    const core::IncaEngine engine(cfg);
    const arch::RunCost ideal = engine.inference(nn::lenet5(), 4);
    arch::RunCost run = ideal;
    const WriteVerifyCost cost = applyWriteVerify(
        run, MitigationSpec{}, 1e-3, 1e-3, cfg.device,
        double(cfg.org.totalSubarrays()));
    EXPECT_DOUBLE_EQ(cost.extraEnergy, 0.0);
    EXPECT_DOUBLE_EQ(cost.extraLatency, 0.0);
    EXPECT_DOUBLE_EQ(run.energy(), ideal.energy());
    EXPECT_DOUBLE_EQ(run.latency, ideal.latency);
}

TEST(WriteVerifyCost, CostGrowsWithTheRetryBudget)
{
    const arch::IncaConfig cfg = arch::paperInca();
    const core::IncaEngine engine(cfg);
    const arch::RunCost ideal = engine.inference(nn::lenet5(), 4);
    double lastEnergy = ideal.energy();
    for (const int retries : {1, 2, 4, 8}) {
        MitigationSpec spec;
        spec.writeVerifyRetries = retries;
        arch::RunCost run = ideal;
        applyWriteVerify(run, spec, 5e-2, 1e-2, cfg.device,
                         double(cfg.org.totalSubarrays()));
        EXPECT_GT(run.energy(), lastEnergy);
        lastEnergy = run.energy();
    }
}

// ---------------------------------------------------------------------
// Campaigns
// ---------------------------------------------------------------------

CampaignOptions
smallCampaign()
{
    CampaignOptions opt;
    opt.network = "lenet5";
    opt.trials = 4;
    opt.bers = {1e-4, 1e-2};
    opt.lifetimes = {1e3, 1e8};
    opt.mitigation.writeVerifyRetries = 2;
    opt.mitigation.spareRows = 2;
    opt.mitigation.spareCols = 1;
    return opt;
}

/** Restore cache/thread globals however a test exits. */
class CampaignTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        clearAllCaches();
        setCacheEnabled(true);
    }

    void
    TearDown() override
    {
        ThreadPool::setGlobalThreads(1);
        setCacheEnabled(
            cacheEnabledFromEnv(std::getenv("INCA_CACHE")));
        clearAllCaches();
    }
};

TEST_F(CampaignTest, CsvBytesMatchThePinnedDigests)
{
    // Every other campaign case compares two runs of one build; these
    // digests pin the bytes across commits, so a trial loop that
    // reorders a single draw fails here. fault_campaign's defaults on
    // resnet18 (blind writes, both engines, 3 BER + 3 lifetime
    // points, 16 trials), then its lenet5 spec (2 retries, 2 spare
    // rows).
    EXPECT_EQ(testutil::fnv1a(campaignCsv(runCampaign(CampaignOptions{}))),
              0x76e42966b3388531ULL);
    EXPECT_EQ(testutil::fnv1a(campaignCsv(
                  runCampaign(testutil::lenet5Campaign()))),
              0xa6df07b273bcc3f4ULL);
}

TEST_F(CampaignTest, CsvIsByteIdenticalAtEveryThreadCount)
{
    // The small campaign's CSV, and fault_campaign's lenet5 spec with
    // its JSON too (the provenance block records the thread count).
    // Three lanes divide neither the trial nor the point count.
    std::string small, spec;
    for (const int threads : {1, 2, 3, 8}) {
        SCOPED_TRACE(threads);
        ThreadPool::setGlobalThreads(threads);
        clearAllCaches();
        const std::string a = campaignCsv(runCampaign(smallCampaign()));
        const std::string b = testutil::campaignExports(
            runCampaign(testutil::lenet5Campaign()));
        if (small.empty()) {
            small = a;
            spec = b;
        }
        EXPECT_EQ(a, small);
        EXPECT_EQ(b, spec);
    }
}

TEST_F(CampaignTest, CachedAndUncachedRunsAreByteIdentical)
{
    // The campaign has no memo; the INCA_CACHE switch (and a repeat
    // run) must not leak into its results either.
    setCacheEnabled(false);
    const std::string reference = campaignCsv(runCampaign(
        smallCampaign()));
    setCacheEnabled(true);
    EXPECT_EQ(campaignCsv(runCampaign(smallCampaign())), reference);
    EXPECT_EQ(campaignCsv(runCampaign(smallCampaign())), reference);
}

TEST_F(CampaignTest, DifferentFaultSpecsNeverAliasInTheCache)
{
    CampaignOptions opt = smallCampaign();
    const std::string a = campaignCsv(runCampaign(opt));
    opt.fault.hardBerWear *= 10.0; // only the wear curve changes
    opt.bers.clear();              // lifetime points see the change
    CampaignOptions ref = smallCampaign();
    ref.bers.clear();
    const std::string b = campaignCsv(runCampaign(opt));
    const std::string c = campaignCsv(runCampaign(ref));
    EXPECT_NE(b, c);
}

TEST_F(CampaignTest, SpareExhaustionDegradesInsteadOfAborting)
{
    CampaignOptions opt = smallCampaign();
    opt.bers = {0.05}; // far beyond what 2+1 spares can cover
    opt.lifetimes.clear();
    opt.runWs = false;
    const CampaignResult result = runCampaign(opt);
    ASSERT_EQ(result.curves.size(), 1u);
    const CampaignPoint &p = result.curves[0].points[0];
    EXPECT_GT(p.exhaustedFraction, 0.0);
    EXPECT_GT(p.residualBer, 0.0);
    EXPECT_LT(p.accuracy, p.idealAccuracy);
    EXPECT_GT(p.accuracy, 0.0); // degraded, not destroyed
}

TEST_F(CampaignTest, MitigationCostShowsUpInEngineNumbers)
{
    const CampaignResult result = runCampaign(smallCampaign());
    bool sawCharge = false;
    for (const auto &curve : result.curves) {
        for (const auto &p : curve.points) {
            EXPECT_GE(p.energyJ, p.idealEnergyJ);
            EXPECT_GE(p.latencyS, p.idealLatencyS);
            if (p.energyJ > p.idealEnergyJ &&
                p.latencyS > p.idealLatencyS)
                sawCharge = true;
        }
    }
    EXPECT_TRUE(sawCharge);
}

TEST_F(CampaignTest, WearMakesLifetimeCurvesDecline)
{
    CampaignOptions opt = smallCampaign();
    opt.bers.clear();
    opt.lifetimes = {1e2, 1e9};
    opt.runWs = false;
    const CampaignResult result = runCampaign(opt);
    const auto &points = result.curves[0].points;
    ASSERT_EQ(points.size(), 2u);
    EXPECT_LT(points[0].wear, points[1].wear);
    EXPECT_LE(points[1].accuracy, points[0].accuracy);
    EXPECT_GE(points[1].hardBer, points[0].hardBer);
}

TEST_F(CampaignTest, JsonIsStrictlyLintable)
{
    const CampaignResult result = runCampaign(smallCampaign());
    const std::string json = campaignJson(result);
    EXPECT_TRUE(testutil::JsonLint(json).valid())
        << "error at " << testutil::JsonLint(json).errorPos();
    // The parameterization is in the report (reproducibility).
    EXPECT_NE(json.find("\"write_verify_retries\": 2"),
              std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"reliability.campaign\""),
              std::string::npos);

    // fault_campaign's lenet5 spec: both engines, the fault and
    // mitigation blocks, every point charged at least its ideal cost,
    // and the shared provenance block with every INCA_* switch.
    const CampaignResult spec = runCampaign(testutil::lenet5Campaign());
    const std::string specJson = campaignJson(spec);
    EXPECT_TRUE(testutil::JsonLint(specJson).valid())
        << "error at " << testutil::JsonLint(specJson).errorPos();
    for (const char *member :
         {"\"kind\": \"reliability.campaign\"",
          "\"fault\": {\"hard_ber0\": ",
          "\"mitigation\": {\"write_verify_retries\": 2, "
          "\"spare_rows\": 2, \"spare_cols\": 0}",
          "{\"engine\": \"inca\", \"points\": [",
          "{\"engine\": \"ws\", \"points\": [",
          "\"fault_seed\": ", "\"build_type\": "})
        EXPECT_NE(specJson.find(member), std::string::npos) << member;
    for (const std::string &name : knownEnvVars())
        EXPECT_NE(specJson.find("\"" + name + "\": "),
                  std::string::npos)
            << name;
    ASSERT_EQ(spec.curves.size(), 2u);
    for (const CampaignCurve &curve : spec.curves)
        for (const CampaignPoint &p : curve.points)
            EXPECT_GE(p.energyJ, p.idealEnergyJ)
                << curve.engine << " " << p.sweep << " " << p.x;
}

TEST_F(CampaignTest, RejectsEmptyCampaignsWithActionableErrors)
{
    CampaignOptions none = smallCampaign();
    none.runInca = none.runWs = false;
    EXPECT_EXIT(runCampaign(none), ::testing::ExitedWithCode(1),
                "at least one engine");
    CampaignOptions zeroTrials = smallCampaign();
    zeroTrials.trials = 0;
    EXPECT_EXIT(runCampaign(zeroTrials),
                ::testing::ExitedWithCode(1), "at least one trial");
    CampaignOptions noPoints = smallCampaign();
    noPoints.bers.clear();
    noPoints.lifetimes.clear();
    EXPECT_EXIT(runCampaign(noPoints), ::testing::ExitedWithCode(1),
                "sweep point");
}

TEST_F(CampaignTest, RejectsOutOfDomainInputsNamingTheValue)
{
    // Each was a silent wrong answer or an assertion panic: a
    // negative lifetime tripped FaultModel's write-count assert, a
    // BER of 2 ran clamped to 0.5, and a negative sigma scored
    // accuracies above 100 %.
    CampaignOptions life = smallCampaign();
    life.lifetimes = {1e3, -3324.5};
    EXPECT_EXIT(runCampaign(life), ::testing::ExitedWithCode(1),
                "lifetimes must be finite iteration counts >= 0, got "
                "-3324.5 \\(--lifetimes\\)");
    CampaignOptions ber = smallCampaign();
    ber.bers = {1e-4, 2.0};
    EXPECT_EXIT(runCampaign(ber), ::testing::ExitedWithCode(1),
                "BERs must be in \\[0, 1\\], got 2 \\(--bers\\)");
    ber.bers = {-1e-3};
    EXPECT_EXIT(runCampaign(ber), ::testing::ExitedWithCode(1),
                "BERs must be in \\[0, 1\\], got -0.001");
    ber.bers = {std::nan("")};
    EXPECT_EXIT(runCampaign(ber), ::testing::ExitedWithCode(1),
                "BERs must be in \\[0, 1\\], got nan");
    CampaignOptions sigma = smallCampaign();
    sigma.noiseSigma = -0.1;
    EXPECT_EXIT(runCampaign(sigma), ::testing::ExitedWithCode(1),
                "noise sigma must be >= 0, got -0.1 \\(--sigma\\)");
}

// ---------------------------------------------------------------------
// DSE integration: resilience objective + min_accuracy_at_ber
// ---------------------------------------------------------------------

TEST(ResilienceObjective, NameAndOrientationAreWired)
{
    EXPECT_EQ(dse::objectiveByName("resilience"),
              dse::Objective::Resilience);
    EXPECT_STREQ(dse::objectiveName(dse::Objective::Resilience),
                 "resilience");
    EXPECT_TRUE(dse::objectiveMaximized(dse::Objective::Resilience));
    dse::Evaluation e;
    e.resilience = 0.42;
    EXPECT_DOUBLE_EQ(e.value(dse::Objective::Resilience), 0.42);
}

TEST(ResilienceObjective, ProxyRespondsToBerAndMitigation)
{
    const MitigationSpec none;
    MitigationSpec hardened;
    hardened.writeVerifyRetries = 3;
    hardened.spareRows = 8;
    hardened.spareCols = 4;

    const auto proxy = [&](double ber, const MitigationSpec &m) {
        return dse::resilienceProxy(dse::EngineKind::Inca, 4, 9,
                                    0.05, ber, 8, 128, m);
    };
    // More faults, less accuracy.
    EXPECT_GE(proxy(1e-4, none), proxy(1e-2, none));
    EXPECT_GT(proxy(1e-3, hardened), proxy(1e-3, none));
    // Zero faults reduces to the plain accuracy proxy.
    EXPECT_DOUBLE_EQ(proxy(0.0, none),
                     dse::accuracyProxy(dse::EngineKind::Inca, 4, 9,
                                        0.05));
    // The WS engine's accumulating-noise slope makes it far more
    // fault-sensitive than IS at the same residual rate.
    const double ws = dse::resilienceProxy(
        dse::EngineKind::Ws, 8, 9, 0.05, 1e-2, 8, 128, none);
    const double is = dse::resilienceProxy(
        dse::EngineKind::Inca, 8, 9, 0.05, 1e-2, 8, 128, none);
    EXPECT_LT(ws, is);
}

TEST(ResilienceConstraint, MinAccuracyAtBerParsesAndRejects)
{
    dse::Constraints c;
    EXPECT_TRUE(c.empty());
    c.set("min_accuracy_at_ber=0.5");
    EXPECT_FALSE(c.empty());
    EXPECT_DOUBLE_EQ(c.minAccuracyAtBer, 0.5);
    EXPECT_NE(c.str().find("min_accuracy_at_ber=0.5"),
              std::string::npos);

    dse::Evaluation weak;
    weak.resilience = 0.3;
    const auto check =
        dse::checkConstraints(c, weak, dse::EngineKind::Inca, 4, 9);
    EXPECT_FALSE(check.ok);
    EXPECT_NE(check.reason.find("min_accuracy_at_ber"),
              std::string::npos);

    dse::Evaluation strong;
    strong.resilience = 0.8;
    EXPECT_TRUE(dse::checkConstraints(c, strong,
                                      dse::EngineKind::Inca, 4, 9)
                    .ok);
}

TEST(ResilienceExplorer, EndToEndObjectiveAndConstraint)
{
    dse::SearchSpace space;
    space.axis("adc_bits", {3, 4, 6});
    dse::ExploreOptions opt;
    opt.network = "lenet5";
    opt.objectives = {dse::Objective::Energy,
                      dse::Objective::Resilience};
    opt.faultBer = 1e-3;
    opt.mitigation.writeVerifyRetries = 2;
    opt.mitigation.spareRows = 4;
    dse::Explorer explorer(space, opt);
    const dse::ExploreResult result = explorer.run();
    ASSERT_FALSE(result.frontier.empty());
    for (const auto &e : result.frontier) {
        EXPECT_GT(e.resilience, 0.0);
        EXPECT_LE(e.resilience, 1.0);
    }
    // The signature pins the fault parameterization, so a resumed
    // journal can never mix resilience settings.
    EXPECT_NE(explorer.signature().find("ber="), std::string::npos);
    EXPECT_NE(explorer.signature().find("mitigation=retries:2"),
              std::string::npos);

    // A strict floor rejects candidates before scoring.
    dse::ExploreOptions strict = opt;
    strict.constraints.set("min_accuracy_at_ber=0.99");
    dse::Explorer strictExplorer(space, strict);
    const dse::ExploreResult rejected = strictExplorer.run();
    EXPECT_EQ(rejected.frontier.size(), 0u);
    EXPECT_EQ(rejected.filtered, rejected.evaluations.size());

    // explore --strategy random --seed 7 --budget 32
    //   --objectives energy,resilience
    //   --constraint min_accuracy_at_ber=0.5
    //   --ber 1e-3 --retries 2 --spare-rows 4
    dse::ExploreOptions cli;
    cli.strategy = dse::StrategyKind::Random;
    cli.seed = 7;
    cli.budget = 32;
    cli.objectives = {dse::Objective::Energy,
                      dse::Objective::Resilience};
    cli.constraints.set("min_accuracy_at_ber=0.5");
    cli.faultBer = 1e-3;
    cli.mitigation.writeVerifyRetries = 2;
    cli.mitigation.spareRows = 4;
    dse::Explorer endToEnd(dse::defaultSpace(dse::EngineKind::Inca),
                           cli);
    const dse::ExploreResult r = endToEnd.run();
    ASSERT_FALSE(r.frontier.empty());
    const std::string csv = dse::frontierCsv(
        endToEnd.space(), r.frontier, cli.objectives);
    EXPECT_NE(csv.substr(0, csv.find('\n')).find("resilience"),
              std::string::npos);
    const std::string json = dse::frontierJson(endToEnd, r);
    EXPECT_NE(json.find("\"fault_ber\": 0.001,"), std::string::npos);
    std::size_t withResilience = 0;
    for (std::size_t at = json.find("\"resilience\": ");
         at != std::string::npos;
         at = json.find("\"resilience\": ", at + 1))
        ++withResilience;
    EXPECT_EQ(withResilience, r.frontier.size());
    for (const auto &e : r.frontier)
        EXPECT_GE(e.resilience, 0.5);
}

TEST(ResilienceJournal, ResilienceSurvivesTheRoundTrip)
{
    dse::Evaluation e;
    e.candidate.index = 3;
    e.feasible = true;
    e.scored = true;
    e.resilience = 0.123456789012345678; // exercises %.17g
    e.accuracy = 0.5;
    e.objectives = {1.0, -0.5};
    const std::string line = dse::evalToJsonLine(e);
    EXPECT_NE(line.find("\"resilience\":"), std::string::npos);
    EXPECT_TRUE(testutil::JsonLint(line).valid());

    const std::string path =
        ::testing::TempDir() + "/reliability_journal.jsonl";
    dse::JournalHeader header;
    header.signature = "test";
    header.spaceSize = 4;
    dse::JournalWriter writer;
    writer.open(path, header, false);
    writer.append(e);
    writer.close();
    dse::JournalContents contents;
    ASSERT_TRUE(dse::readJournal(path, header, 2, contents));
    ASSERT_EQ(contents.evals.count(3), 1u);
    EXPECT_DOUBLE_EQ(contents.evals[3].resilience, e.resilience);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Environment hygiene
// ---------------------------------------------------------------------

TEST(EnvHygiene, ClassifiesKnownAndUnknownIncaVariables)
{
    const char *clean[] = {"PATH=/bin", "INCA_TRACE=t.json",
                           "INCA_NUM_THREADS=4", nullptr};
    EXPECT_TRUE(unrecognizedEnvVars(clean).empty());

    const char *typos[] = {"INCA_TRACES=t.json", "INCA_THREADS=4",
                           "HOME=/root", "INCA_CACHE=0",
                           "INCA_TRACES=again", nullptr};
    const auto unknown = unrecognizedEnvVars(typos);
    ASSERT_EQ(unknown.size(), 2u); // sorted, deduplicated
    EXPECT_EQ(unknown[0], "INCA_THREADS");
    EXPECT_EQ(unknown[1], "INCA_TRACES");

    EXPECT_TRUE(unrecognizedEnvVars(nullptr).empty());
}

TEST(EnvHygiene, TypoWarnsOnceNamingTheValidSwitches)
{
    // The whole of the child's stderr: one line, however often a
    // driver checks.
    EXPECT_EXIT(
        {
            for (const std::string &name : unrecognizedEnvVars(environ))
                unsetenv(name.c_str());
            setenv("INCA_TRACES", "typo.json", 1);
            checkEnvironment();
            checkEnvironment();
            std::exit(0);
        },
        ::testing::ExitedWithCode(0),
        "^warn: unrecognized environment variable INCA_TRACES -- "
        "the simulator reads only INCA_CACHE, INCA_KERNEL_ISA, "
        "INCA_METRICS, INCA_NUM_THREADS, INCA_TRACE; a typo here "
        "silently configures nothing\n$");
}

TEST(EnvHygiene, KnownListCoversEveryDocumentedSwitch)
{
    const auto &known = knownEnvVars();
    for (const char *name : {"INCA_CACHE", "INCA_METRICS",
                             "INCA_NUM_THREADS", "INCA_TRACE"}) {
        EXPECT_NE(std::find(known.begin(), known.end(), name),
                  known.end())
            << name;
    }
}

} // namespace
} // namespace reliability
} // namespace inca
