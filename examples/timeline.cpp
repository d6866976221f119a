/**
 * @file
 * Event-driven timeline driver: lower a network to the shared IR and
 * execute it on either backend.
 *
 *   $ ./build/examples/timeline [options]
 *     --network <name>        model zoo name (default lenet5)
 *     --engine inca|ws        dataflow (default inca)
 *     --phase inference|training  (default inference)
 *     --batch <n>             batch size (default 64)
 *     --backend analytic|event    (default event)
 *     --overlap on|off        double-buffered load/compute (off)
 *     --disasm                print the lowered program and exit
 *     --json <path>           write the run + provenance as JSON
 *     --csv <path>            write the per-layer table as CSV
 *     --report                print the bottleneck report (event only)
 *     --what-if <u=f,...>     what-if factors, e.g. dram=0.5,adc=0.9
 *                             (implies --report; default sweep halves
 *                             each non-ctrl unit)
 *     --report-json <path>    write the bottleneck report as JSON
 *     --report-csv <path>     write the per-unit report table as CSV
 *
 * Stdout is byte-stable across backends with --overlap off (the
 * bit-exactness contract tests/test_event_backend.cc checks) and
 * across thread counts; the bottleneck report is a
 * pure function of the schedule, so it keeps that property. Schedule
 * diagnostics go to stderr. With INCA_TRACE=<path> the event backend
 * emits spans, sync instants, critical-path flow arrows, and a
 * ready-queue counter at simulated time; with INCA_METRICS=<path> the
 * per-unit occupancy gauges land in the metrics dump.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "event/analysis.hh"
#include "event/event.hh"
#include "examples/cli.hh"
#include "ir/lower.hh"
#include "nn/model_zoo.hh"
#include "sim/export.hh"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--network <name>] [--engine inca|ws] "
                 "[--phase inference|training] [--batch <n>] "
                 "[--backend analytic|event] [--overlap on|off] "
                 "[--disasm] [--json <path>] [--csv <path>] "
                 "[--report] [--what-if <unit=factor,...>] "
                 "[--report-json <path>] [--report-csv <path>]\n",
                 argv0);
    std::exit(2);
}

/** Parse "dram=0.5,adc=0.9" into (unit, factor) pairs. */
std::vector<std::pair<inca::ir::Unit, double>>
parseWhatIf(const char *text)
{
    using namespace inca;
    std::vector<std::pair<ir::Unit, double>> out;
    std::string list = text;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        const std::string token = list.substr(pos, comma - pos);
        pos = comma + 1;
        const std::size_t eq = token.find('=');
        if (token.empty() || eq == std::string::npos)
            fatal("--what-if: expected unit=factor, got '%s'",
                  token.c_str());
        ir::Unit unit;
        if (!ir::unitByName(token.substr(0, eq), unit))
            fatal("--what-if: unknown unit '%s'",
                  token.substr(0, eq).c_str());
        const double factor = cli::parseDouble(
            "--what-if", token.substr(eq + 1).c_str());
        if (!std::isfinite(factor) || factor <= 0.0)
            fatal("--what-if: factor %g for '%s' must be > 0",
                  factor, token.substr(0, eq).c_str());
        out.push_back({unit, factor});
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace inca;

    checkEnvironment();

    std::string network = "lenet5";
    std::string engine = "inca";
    std::string phaseName = "inference";
    std::string backend = "event";
    std::string jsonPath;
    std::string csvPath;
    std::string reportJsonPath;
    std::string reportCsvPath;
    int batch = 64;
    bool overlap = false;
    bool disasm = false;
    bool report = false;
    std::vector<std::pair<ir::Unit, double>> whatIf;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--network") {
            network = value();
        } else if (arg == "--engine") {
            engine = value();
        } else if (arg == "--phase") {
            phaseName = value();
        } else if (arg == "--batch") {
            batch = cli::parseIntIn("--batch", value(), 1);
        } else if (arg == "--backend") {
            backend = value();
        } else if (arg == "--overlap") {
            const std::string v = value();
            overlap = v == "on";
            if (!overlap && v != "off")
                usage(argv[0]);
        } else if (arg == "--disasm") {
            disasm = true;
        } else if (arg == "--json") {
            jsonPath = value();
        } else if (arg == "--csv") {
            csvPath = value();
        } else if (arg == "--report") {
            report = true;
        } else if (arg == "--what-if") {
            whatIf = parseWhatIf(value());
            report = true;
        } else if (arg == "--report-json") {
            reportJsonPath = value();
            report = true;
        } else if (arg == "--report-csv") {
            reportCsvPath = value();
            report = true;
        } else {
            usage(argv[0]);
        }
    }
    if ((engine != "inca" && engine != "ws") ||
        (backend != "analytic" && backend != "event") ||
        (phaseName != "inference" && phaseName != "training"))
        usage(argv[0]);
    if (report && backend != "event")
        fatal("--report/--what-if need the schedule: use "
              "--backend event");

    const arch::Phase phase = phaseName == "training"
                                  ? arch::Phase::Training
                                  : arch::Phase::Inference;
    const nn::NetworkDesc net = nn::byName(network);
    const ir::LowerOptions opts{overlap};
    const ir::Program program =
        engine == "inca"
            ? ir::lowerInca(arch::paperInca(), net, phase, batch, opts)
            : ir::lowerWs(arch::paperBaseline(), net, phase, batch,
                          opts);

    if (disasm) {
        std::fputs(ir::disassemble(program).c_str(), stdout);
        return 0;
    }

    arch::RunCost run;
    event::Report analysis;
    if (backend == "event") {
        const event::TimedRun timed = event::execute(program);
        event::emitTrace(program, timed);
        event::AnalyzeOptions aopts;
        aopts.runWhatIf = report;
        aopts.whatIf = whatIf;
        analysis = event::analyze(program, timed, aopts);
        event::publishMetrics(analysis);
        run = timed.run;
        // Schedule diagnostics -- stderr, so stdout stays diffable
        // against the analytic backend.
        std::fprintf(stderr, "event: %zu instrs, makespan %.17g s\n",
                     program.instrs.size(), timed.makespan);
        for (int u = 0; u < ir::kUnitCount; ++u) {
            const auto &intervals = timed.busy[std::size_t(u)];
            if (intervals.empty())
                continue;
            Seconds busySum = 0.0;
            for (const auto &iv : intervals)
                busySum += iv.finish - iv.start;
            std::fprintf(stderr,
                         "event: unit %-8s %4zu intervals, busy "
                         "%.17g s\n",
                         ir::unitName(ir::Unit(u)), intervals.size(),
                         busySum);
        }
    } else {
        run = ir::analyticWalk(program);
    }

    // Byte-stable summary: full precision, no backend provenance.
    std::printf("timeline %s.%s.%s batch=%d overlap=%d\n",
                program.engine.c_str(), program.network.c_str(),
                phaseName.c_str(), batch, overlap ? 1 : 0);
    std::printf("layer,kind,latency_s,energy_j\n");
    for (const auto &layer : run.layers)
        std::printf("%s,%s,%.17g,%.17g\n", layer.name.c_str(),
                    nn::layerKindName(layer.kind), layer.latency,
                    layer.energy());
    std::printf("total,latency_s,%.17g\n", run.latency);
    std::printf("total,dynamic_energy_j,%.17g\n", run.sum("energy"));
    std::printf("total,static_energy_j,%.17g\n", run.staticEnergy);
    std::printf("total,energy_j,%.17g\n", run.energy());

    if (report)
        std::fputs(event::reportText(program, analysis).c_str(),
                   stdout);
    if (!reportJsonPath.empty())
        sim::writeFile(reportJsonPath,
                       event::reportJson(program, analysis));
    if (!reportCsvPath.empty())
        sim::writeFile(reportCsvPath,
                       event::reportCsv(program, analysis));
    if (!csvPath.empty())
        sim::writeFile(csvPath, sim::toCsv(run));
    if (!jsonPath.empty()) {
        const std::string extras =
            std::string("\"backend\": \"") + backend +
            "\", \"overlap\": " + (overlap ? "true" : "false") +
            ", \"engine\": \"" + program.engine + "\"";
        sim::writeFile(jsonPath, sim::toJson(run, extras));
    }
    return 0;
}
