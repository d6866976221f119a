/**
 * @file
 * Driver runs rebuilt in-process: the options each driver builds
 * from one command line, so a test checks a property of the exact
 * run a user gets from the CLI (test_trace, test_dse,
 * test_kernel_dispatch, test_reliability).
 */

#ifndef INCA_TESTS_DRIVER_SPECS_HH
#define INCA_TESTS_DRIVER_SPECS_HH

#include <string>

#include "arch/config.hh"
#include "baseline/engine.hh"
#include "dse/explorer.hh"
#include "inca/engine.hh"
#include "json_lint.hh"
#include "nn/model_zoo.hh"
#include "reliability/campaign.hh"
#include "sim/export.hh"
#include "sim/report.hh"

namespace inca {
namespace testutil {

/**
 * compare_dataflows 64: every INCA and WS run of the evaluation
 * suite in both phases, each as its JSON export without provenance.
 */
inline std::string
compareDataflowsRuns()
{
    std::string out;
    const core::IncaEngine inca(arch::paperInca());
    const baseline::BaselineEngine base(arch::paperBaseline());
    for (const arch::Phase phase :
         {arch::Phase::Inference, arch::Phase::Training}) {
        for (const sim::Comparison &c : sim::compareSuite(
                 inca, base, nn::evaluationSuite(), 64, phase))
            out += withoutProvenance(sim::toJson(c.inca)) +
                   withoutProvenance(sim::toJson(c.baseline));
    }
    return out;
}

/**
 * design_space's shared options: resnet18 on a grid, with the
 * lossless-ADC bound soft so a clipping row still scores and warns.
 */
inline dse::ExploreOptions
designSpaceOptions()
{
    dse::ExploreOptions opt;
    opt.engine = dse::EngineKind::Inca;
    opt.network = "resnet18";
    opt.strategy = dse::StrategyKind::Grid;
    opt.constraints.set("lossless_adc=1");
    opt.softConstraints = true;
    return opt;
}

/** design_space's ADC-resolution sweep (at the 16x16 design point). */
inline dse::SearchSpace
designSpaceAdcSweep()
{
    dse::SearchSpace space;
    space.axis("adc_bits", {3, 4, 6, 8});
    return space;
}

/** design_space's plane-size sweep (run with isoCapacity set). */
inline dse::SearchSpace
designSpacePlaneSweep()
{
    dse::SearchSpace space;
    space.axis("plane", {8, 16, 32, 64});
    return space;
}

/**
 * fault_campaign --network lenet5 --trials 8 --retries 2
 * --spare-rows 2: the default sweep on both engines.
 */
inline reliability::CampaignOptions
lenet5Campaign()
{
    reliability::CampaignOptions opt;
    opt.network = "lenet5";
    opt.trials = 8;
    opt.mitigation.writeVerifyRetries = 2;
    opt.mitigation.spareRows = 2;
    return opt;
}

/** A campaign's CSV and its JSON without provenance. */
inline std::string
campaignExports(const reliability::CampaignResult &result)
{
    return reliability::campaignCsv(result) +
           withoutProvenance(reliability::campaignJson(result));
}

} // namespace testutil
} // namespace inca

#endif // INCA_TESTS_DRIVER_SPECS_HH
