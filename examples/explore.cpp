/**
 * @file
 * Design-space exploration driver on top of src/dse.
 *
 * Enumerates (grid), samples (random), or anneals over a space of
 * accelerator configurations, filters them through constraint bounds,
 * scores survivors with the analytic engines in parallel, and reduces
 * the results to a Pareto frontier over the chosen objectives. The
 * frontier -- and every exported artifact -- is bit-identical at any
 * thread count, and a run killed midway resumes from its journal to
 * the same result as an uninterrupted one.
 *
 *   $ ./build/examples/explore --engine inca --network resnet18 \
 *       --strategy random --seed 7 --budget 64 \
 *       --objectives energy,latency,area \
 *       --constraint max_area_mm2=200 \
 *       --journal run.jsonl --csv frontier.csv
 *   # ... killed ...
 *   $ ./build/examples/explore ... --journal run.jsonl --resume
 *
 * Axes default to dse::defaultSpace(engine); override with repeated
 * --axis name=v1,v2,... flags (see dse/space.hh for the axis names).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "dse/explorer.hh"
#include "examples/cli.hh"
#include "sim/export.hh"
#include "sim/report.hh"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --engine inca|ws        engine to score (default inca)\n"
        "  --phase inference|training\n"
        "  --network <name>        model-zoo network (default "
        "resnet18)\n"
        "  --strategy grid|random|anneal\n"
        "  --seed <n>              strategy RNG seed (default 1)\n"
        "  --budget <n>            max candidates (0 = whole space)\n"
        "  --objectives a,b,...    energy,latency,area,edp,"
        "idle_power,utilization,accuracy,resilience,"
        "latency_timed,\n"
        "                          p99_latency,goodput,"
        "energy_per_request,\n"
        "                          availability,shed_fraction\n"
        "  --constraint k=v        repeatable; max_area_mm2, "
        "max_idle_w,\n"
        "                          min_utilization, min_accuracy,\n"
        "                          min_accuracy_at_ber, "
        "lossless_adc,\n"
        "                          max_p99_ms, min_availability\n"
        "  --soft                  constraints warn but still score\n"
        "  --axis name=v1,v2,...   repeatable; replaces the default "
        "space\n"
        "  --iso-capacity          rescale tiles to keep base cell "
        "count\n"
        "  --sigma <x>             device-noise level for the "
        "accuracy proxy\n"
        "  --ber <x>               reference fault rate for the "
        "resilience proxy\n"
        "  --retries <n>           write-verify retry budget "
        "(resilience)\n"
        "  --spare-rows <n>        spare rows per array "
        "(resilience)\n"
        "  --spare-cols <n>        spare columns per array "
        "(resilience)\n"
        "  --eval-batch <n>        candidates per parallel wave\n"
        "  serving scenario (p99_latency/goodput/energy_per_request\n"
        "  objectives and max_p99_ms; axes replicas, serve_batch,\n"
        "  shard, shard_chips override per candidate):\n"
        "  --arrivals poisson|bursty|diurnal\n"
        "  --rate <r>              offered load (e.g. 200/s)\n"
        "  --serve-duration <d>    arrival horizon (e.g. 200ms)\n"
        "  --serve-seed <n>        arrival RNG seed\n"
        "  --serve-replicas <n>    fixed server count\n"
        "  --serve-shard k[:n]     replica, pipeline:<n>, tensor:<n>\n"
        "  --batch-policy n:<d>    batch cap and timeout (e.g. "
        "8:2ms)\n"
        "  --slo-ms <x>            goodput latency SLO\n"
        "  chaos layer (availability/shed_fraction objectives,\n"
        "  min_availability; axis failure_mtbf in ms overrides):\n"
        "  --failures <spec>       none | mtbf:mttr[:frac[:slow]]\n"
        "  --serve-retry <spec>    none | budget:backoff[:jitter]\n"
        "  --deadline-ms <x>       per-request deadline (0 = off)\n"
        "  --queue-cap <n>         per-stream queue bound (0 = off)\n"
        "  --journal <path>        JSONL checkpoint journal\n"
        "  --resume                reuse the journal's evaluations\n"
        "  --csv <path>            write the frontier as CSV\n"
        "  --json <path>           write the frontier JSON report\n"
        "  --export-runs <prefix>  per-frontier-point run "
        "CSV/JSON\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace inca;

    checkEnvironment();

    dse::ExploreOptions opt;
    std::vector<std::pair<std::string, std::vector<std::int64_t>>>
        axes;
    std::string csvPath, jsonPath, exportPrefix;

    const auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("%s needs a value", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--engine") == 0) {
            opt.engine = dse::engineKindByName(value(i));
        } else if (std::strcmp(a, "--phase") == 0) {
            const std::string p = value(i);
            if (p == "inference")
                opt.phase = arch::Phase::Inference;
            else if (p == "training")
                opt.phase = arch::Phase::Training;
            else
                fatal("unknown phase '%s'", p.c_str());
        } else if (std::strcmp(a, "--network") == 0) {
            opt.network = value(i);
        } else if (std::strcmp(a, "--strategy") == 0) {
            opt.strategy = dse::strategyKindByName(value(i));
        } else if (std::strcmp(a, "--seed") == 0) {
            opt.seed = cli::parseU64(a, value(i));
        } else if (std::strcmp(a, "--budget") == 0) {
            opt.budget = cli::parseU64(a, value(i));
        } else if (std::strcmp(a, "--objectives") == 0) {
            opt.objectives = dse::objectivesByNames(value(i));
        } else if (std::strcmp(a, "--constraint") == 0) {
            opt.constraints.set(value(i));
        } else if (std::strcmp(a, "--soft") == 0) {
            opt.softConstraints = true;
        } else if (std::strcmp(a, "--axis") == 0) {
            const std::string spec = value(i);
            const std::size_t eq = spec.find('=');
            if (eq == std::string::npos)
                fatal("--axis '%s' is not name=v1,v2,...",
                      spec.c_str());
            axes.emplace_back(
                spec.substr(0, eq),
                cli::parseIntList(a, spec.c_str() + eq + 1));
        } else if (std::strcmp(a, "--iso-capacity") == 0) {
            opt.isoCapacity = true;
        } else if (std::strcmp(a, "--sigma") == 0) {
            opt.noiseSigma = cli::parseDouble(a, value(i));
        } else if (std::strcmp(a, "--ber") == 0) {
            opt.faultBer = cli::parseDouble(a, value(i));
        } else if (std::strcmp(a, "--retries") == 0) {
            opt.mitigation.writeVerifyRetries =
                cli::parseIntIn(a, value(i), 0);
        } else if (std::strcmp(a, "--spare-rows") == 0) {
            opt.mitigation.spareRows =
                cli::parseIntIn(a, value(i), 0);
        } else if (std::strcmp(a, "--spare-cols") == 0) {
            opt.mitigation.spareCols =
                cli::parseIntIn(a, value(i), 0);
        } else if (std::strcmp(a, "--eval-batch") == 0) {
            opt.evalBatch =
                std::size_t(cli::parsePositive(a, value(i)));
        } else if (std::strcmp(a, "--arrivals") == 0) {
            opt.serving.arrivals.kind =
                serving::arrivalKindByName(value(i));
        } else if (std::strcmp(a, "--rate") == 0) {
            opt.serving.arrivals.ratePerS =
                cli::parseRate(a, value(i));
        } else if (std::strcmp(a, "--serve-duration") == 0) {
            opt.serving.durationS =
                cli::parsePositiveDuration(a, value(i));
        } else if (std::strcmp(a, "--serve-seed") == 0) {
            opt.serving.arrivals.seed = cli::parseU64(a, value(i));
        } else if (std::strcmp(a, "--serve-replicas") == 0) {
            opt.serving.replicas =
                cli::parseIntIn(a, value(i), 1);
        } else if (std::strcmp(a, "--serve-shard") == 0) {
            const std::string s = value(i);
            const std::size_t colon = s.find(':');
            opt.serving.shard.kind =
                serving::shardKindByName(s.substr(0, colon));
            if (colon != std::string::npos)
                opt.serving.shard.chips = cli::parseIntIn(
                    a, s.c_str() + colon + 1, 1);
            else if (opt.serving.shard.kind !=
                     serving::ShardKind::Replica)
                fatal("%s: '%s' needs a chip count (e.g. tensor:4)",
                      a, s.c_str());
        } else if (std::strcmp(a, "--batch-policy") == 0) {
            const std::string s = value(i);
            const std::size_t colon = s.find(':');
            if (colon == std::string::npos)
                fatal("%s: '%s' is not size:timeout (e.g. 8:2ms)", a,
                      s.c_str());
            opt.serving.batch.maxBatch = cli::parseIntIn(
                a, s.substr(0, colon).c_str(), 1);
            opt.serving.batch.timeoutS =
                cli::parseDuration(a, s.c_str() + colon + 1);
        } else if (std::strcmp(a, "--slo-ms") == 0) {
            opt.serving.sloS =
                cli::parseNonNegative(a, value(i)) * 1e-3;
        } else if (std::strcmp(a, "--failures") == 0) {
            opt.serving.failures =
                serving::parseFailureSpec(a, value(i));
        } else if (std::strcmp(a, "--serve-retry") == 0) {
            opt.serving.retry = serving::parseRetrySpec(a, value(i));
        } else if (std::strcmp(a, "--deadline-ms") == 0) {
            opt.serving.deadlineS =
                cli::parseNonNegative(a, value(i)) * 1e-3;
        } else if (std::strcmp(a, "--queue-cap") == 0) {
            opt.serving.queueCap = cli::parseU64(a, value(i));
        } else if (std::strcmp(a, "--journal") == 0) {
            opt.journalPath = value(i);
        } else if (std::strcmp(a, "--resume") == 0) {
            opt.resume = true;
        } else if (std::strcmp(a, "--csv") == 0) {
            csvPath = value(i);
        } else if (std::strcmp(a, "--json") == 0) {
            jsonPath = value(i);
        } else if (std::strcmp(a, "--export-runs") == 0) {
            exportPrefix = value(i);
        } else if (std::strcmp(a, "--help") == 0 ||
                   std::strcmp(a, "-h") == 0) {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            fatal("unknown flag '%s'", a);
        }
    }

    dse::SearchSpace space;
    if (axes.empty()) {
        space = dse::defaultSpace(opt.engine);
    } else {
        for (auto &[name, values] : axes)
            space.axis(name, std::move(values));
    }

    dse::Explorer explorer(std::move(space), std::move(opt));
    const dse::ExploreOptions &options = explorer.options();

    std::printf("exploring %s/%s on %s, strategy %s, seed %llu\n",
                dse::engineKindName(options.engine),
                options.phase == arch::Phase::Training ? "training"
                                                       : "inference",
                options.network.c_str(),
                dse::strategyKindName(options.strategy),
                static_cast<unsigned long long>(options.seed));
    std::printf("space:");
    for (const auto &axis : explorer.space().axes()) {
        std::printf(" %s{", axis.name.c_str());
        for (std::size_t i = 0; i < axis.values.size(); ++i)
            std::printf("%s%lld", i ? "," : "",
                        static_cast<long long>(axis.values[i]));
        std::printf("}");
    }
    std::printf(" -> %llu candidates\n\n",
                static_cast<unsigned long long>(
                    explorer.space().size()));

    dse::ExploreResult result;
    {
        sim::ScopedPhaseTimer timer("explore");
        result = explorer.run();
    }

    std::printf("evaluated %zu (scored %llu, filtered %llu, reused "
                "%llu); frontier %zu of %llu\n\n",
                result.evaluations.size(),
                static_cast<unsigned long long>(result.scored),
                static_cast<unsigned long long>(result.filtered),
                static_cast<unsigned long long>(result.reused),
                result.frontier.size(),
                static_cast<unsigned long long>(result.spaceSize));

    TextTable table({"point", "E/batch", "t/batch", "area", "util",
                     "accuracy", "resilience"});
    for (const auto &e : result.frontier) {
        table.addRow(
            {explorer.space().describe(e.candidate),
             formatSi(e.energyJ, "J"), formatSi(e.latencyS, "s"),
             formatAreaMm2(e.areaM2),
             TextTable::num(100.0 * e.utilization, 1) + " %",
             TextTable::num(100.0 * e.accuracy, 1) + " %",
             TextTable::num(100.0 * e.resilience, 1) + " %"});
    }
    table.print();

    if (!csvPath.empty())
        sim::writeFile(csvPath,
                       dse::frontierCsv(explorer.space(),
                                        result.frontier,
                                        options.objectives));
    if (!jsonPath.empty())
        sim::writeFile(jsonPath, dse::frontierJson(explorer, result));
    if (!exportPrefix.empty())
        dse::exportFrontierRuns(explorer, result, exportPrefix);

    sim::printPhaseTimes();
    return 0;
}
