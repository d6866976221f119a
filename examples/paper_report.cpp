/**
 * @file
 * Generate a complete markdown reproduction report from live
 * simulation: every headline table of the paper, measured now,
 * side by side with the published values.
 *
 *   $ ./build/examples/paper_report [output.md]
 *
 * Defaults to /tmp/inca_reproduction_report.md.
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "arch/area.hh"
#include "arch/endurance.hh"
#include "common/env.hh"
#include "common/units.hh"
#include "dataflow/access_model.hh"
#include "dataflow/footprint.hh"
#include "dataflow/unroll.hh"
#include "arch/utilization.hh"
#include "gpu/gpu_model.hh"
#include "nn/model_zoo.hh"
#include "sim/export.hh"
#include "sim/report.hh"

namespace {

using namespace inca;

/** Returns the INCA training runs, which the GPU section reuses. */
std::vector<arch::RunCost>
headlineSection(std::ostringstream &md,
                const core::IncaEngine &inca,
                const baseline::BaselineEngine &base)
{
    const double paperEffInf[] = {20.6, 15.9, 8.7, 8.0, 80, 83};
    const double paperEffTrn[] = {260, 202, 103, 152, 3873, 2790};
    const double paperSpdInf[] = {4.6, 3.7, 1.9, 4.8, 201, 85};
    const double paperSpdTrn[] = {18.6, 14.2, 7.2, 6.8, 1187, 363};

    md << "## Headline comparison (Figs. 11 & 14, batch 64)\n\n";
    md << "| network | eff. inf (paper) | eff. trn (paper) | "
          "speedup inf (paper) | speedup trn (paper) |\n";
    md << "|---|---|---|---|---|\n";
    std::vector<arch::RunCost> incaTraining;
    const auto suite = nn::evaluationSuite();
    for (size_t i = 0; i < suite.size(); ++i) {
        const auto inf = sim::compare(inca, base, suite[i], 64,
                                      arch::Phase::Inference);
        const auto trn = sim::compare(inca, base, suite[i], 64,
                                      arch::Phase::Training);
        incaTraining.push_back(trn.inca);
        char row[256];
        std::snprintf(row, sizeof(row),
                      "| %s | %.1fx (%.1fx) | %.0fx (%.0fx) | "
                      "%.1fx (%.1fx) | %.0fx (%.0fx) |\n",
                      suite[i].name.c_str(),
                      inf.energyEfficiencyGain(), paperEffInf[i],
                      trn.energyEfficiencyGain(), paperEffTrn[i],
                      inf.speedup(), paperSpdInf[i], trn.speedup(),
                      paperSpdTrn[i]);
        md << row;
    }
    md << "\n";
    return incaTraining;
}

void
accessSection(std::ostringstream &md)
{
    md << "## Buffer accesses (Table III, 8-bit / 256-bit)\n\n";
    md << "| network | INCA measured | INCA paper |\n|---|---|---|\n";
    const double paper[] = {460000, 625888, 349024,
                            508950, 66832,  92333};
    const dataflow::AccessConfig cfg{8, 256};
    const auto suite = nn::evaluationSuite();
    for (size_t i = 0; i < suite.size(); ++i) {
        const auto s = dataflow::networkAccesses(suite[i], cfg);
        char row[160];
        std::snprintf(row, sizeof(row), "| %s | %llu | %.0f |\n",
                      suite[i].name.c_str(),
                      (unsigned long long)s.inca, paper[i]);
        md << row;
    }
    md << "\n";
}

void
footprintSection(std::ostringstream &md)
{
    md << "## Memory footprint (Table IV, MiB)\n\n";
    md << "| network | base RRAM | base buf | INCA RRAM | INCA buf "
          "|\n|---|---|---|---|---|\n";
    for (const auto &net : nn::evaluationSuite()) {
        const auto row = dataflow::footprint(net);
        char line[200];
        std::snprintf(line, sizeof(line),
                      "| %s | %.2f | %.2f | %.2f | %.2f |\n",
                      net.name.c_str(),
                      dataflow::toMiB(row.baseline.rram),
                      dataflow::toMiB(row.baseline.buffers),
                      dataflow::toMiB(row.inca.rram),
                      dataflow::toMiB(row.inca.buffers));
        md << line;
    }
    md << "\n";
}

void
areaSection(std::ostringstream &md)
{
    const auto base = arch::baselineArea(arch::paperBaseline());
    const auto inca = arch::incaArea(arch::paperInca());
    md << "## Area (Table V, mm^2)\n\n";
    char line[160];
    std::snprintf(line, sizeof(line),
                  "baseline total %.3f (paper 84.088); INCA total "
                  "%.3f (paper 47.914)\n\n",
                  base.total() * 1e6, inca.total() * 1e6);
    md << line;
}

void
utilizationSection(std::ostringstream &md)
{
    md << "## Utilization (Fig. 16b, %)\n\n";
    md << "| network | INCA 16x16 | WS 128x128 |\n|---|---|---|\n";
    for (const auto &net : nn::evaluationSuite()) {
        char line[160];
        std::snprintf(line, sizeof(line), "| %s | %.1f | %.1f |\n",
                      net.name.c_str(),
                      100.0 * arch::incaNetworkUtilization(net, 16),
                      100.0 * arch::wsNetworkUtilization(net, 128));
        md << line;
    }
    md << "\n";
}

void
gpuSection(std::ostringstream &md,
           const std::vector<arch::RunCost> &incaTraining)
{
    md << "## GPU comparison (Fig. 15, training)\n\n";
    md << "| network | energy-eff gain | iso-area gain "
          "|\n|---|---|---|\n";
    gpu::GpuModel titan;
    const double incaAreaMm2 =
        arch::incaArea(arch::paperInca()).total() * 1e6;
    const double gpuAreaMm2 = titan.spec().dieArea * 1e6;
    const auto suite = nn::evaluationSuite();
    for (size_t n = 0; n < suite.size(); ++n) {
        const arch::RunCost &i = incaTraining[n];
        const auto g = titan.training(suite[n], 64);
        char line[160];
        std::snprintf(line, sizeof(line), "| %s | %.0fx | %.0fx |\n",
                      suite[n].name.c_str(),
                      (g.energy / 64.0) / i.energyPerImage(),
                      (i.throughput() / incaAreaMm2) /
                          (g.throughput(64) / gpuAreaMm2));
        md << line;
    }
    md << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    inca::checkEnvironment();

    const std::string path =
        argc > 1 ? argv[1] : "/tmp/inca_reproduction_report.md";

    core::IncaEngine inca(arch::paperInca());
    baseline::BaselineEngine base(arch::paperBaseline());

    std::ostringstream md;
    md << "# INCA reproduction report (generated)\n\n";
    md << "Configuration: Table II defaults; batch 64; ImageNet "
          "shapes. Paper values in parentheses. See EXPERIMENTS.md "
          "for the full per-figure discussion (incl. the accuracy "
          "studies, which train live and are reported by "
          "bench_table1/bench_table6).\n\n";
    const std::vector<arch::RunCost> incaTraining =
        headlineSection(md, inca, base);
    accessSection(md);
    footprintSection(md);
    areaSection(md);
    utilizationSection(md);
    gpuSection(md, incaTraining);

    sim::writeFile(path, md.str());
    std::printf("wrote %s (%zu bytes)\n", path.c_str(),
                md.str().size());
    std::fputs(md.str().c_str(), stdout);
    return 0;
}
