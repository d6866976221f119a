/**
 * @file
 * Ablation (beyond the paper's figures): how INCA's advantage scales
 * with the batch size. The 3D stacks hold 64 planes, so batches up to
 * 64 train "for the price of one" while the WS baseline pays per
 * image -- the mechanism behind the Fig. 11b/14b training gains. This
 * sweep makes the design choice quantitative: the gains grow with the
 * batch until the plane count saturates, then flatten.
 */

#include "bench_common.hh"

#include <vector>

#include "common/table.hh"
#include "common/thread_pool.hh"
#include "common/units.hh"
#include "nn/model_zoo.hh"
#include "sim/report.hh"

namespace {

using namespace inca;

void
report()
{
    bench::banner("Ablation: batch-size sweep (ResNet18, training)");
    core::IncaEngine inca(arch::paperInca());
    baseline::BaselineEngine base(arch::paperBaseline());
    const auto net = nn::resnet18();

    // Each batch size is an independent design point: fan them across
    // the pool, each writing its own pre-sized slot so the table is
    // identical at any thread count.
    TextTable t({"batch", "INCA E/img", "INCA t/img", "energy gain",
                 "speedup"});
    const std::vector<int> batches = {1, 4, 16, 64, 128, 256};
    std::vector<std::vector<std::string>> rows(batches.size());
    // Pre-sized per-batch slots: pool threads write only their own
    // entries; the JSON points are registered serially afterwards.
    std::vector<double> gains(batches.size()), speedups(batches.size());
    {
        sim::ScopedPhaseTimer timer("batch-size sweep");
        parallel_for(
            std::int64_t(batches.size()), 1,
            [&](std::int64_t lo, std::int64_t hi) {
                for (std::int64_t i = lo; i < hi; ++i) {
                    const int batch = batches[size_t(i)];
                    const auto c = sim::compare(
                        inca, base, net, batch, arch::Phase::Training);
                    gains[size_t(i)] = c.energyEfficiencyGain();
                    speedups[size_t(i)] = c.speedup();
                    rows[size_t(i)] = {
                        std::to_string(batch),
                        formatSi(c.inca.energyPerImage(), "J"),
                        formatSi(c.inca.latencyPerImage(), "s"),
                        TextTable::ratio(c.energyEfficiencyGain()),
                        TextTable::ratio(c.speedup())};
                }
            });
    }
    for (size_t i = 0; i < batches.size(); ++i) {
        bench::JsonReport::instance().addPoint(
            "training_energy_gain", std::to_string(batches[i]),
            gains[i]);
        bench::JsonReport::instance().addPoint(
            "training_speedup", std::to_string(batches[i]),
            speedups[i]);
    }
    for (const auto &row : rows)
        t.addRow(row);
    t.print();
    std::printf("the gains climb until the batch fills the 64 planes "
                "of each 3D stack, then flatten (batches beyond 64 "
                "run in waves).\n");

    bench::banner("Ablation: stacked-plane count (VGG16, training, "
                  "batch 64)");
    TextTable tp({"planes", "energy gain", "speedup"});
    const std::vector<int> planeCounts = {8, 16, 32, 64};
    std::vector<std::vector<std::string>> planeRows(planeCounts.size());
    {
        sim::ScopedPhaseTimer timer("stacked-plane sweep");
        parallel_for(
            std::int64_t(planeCounts.size()), 1,
            [&](std::int64_t lo, std::int64_t hi) {
                for (std::int64_t i = lo; i < hi; ++i) {
                    arch::IncaConfig cfg = arch::paperInca();
                    cfg.stackedPlanes = planeCounts[size_t(i)];
                    core::IncaEngine engine(cfg);
                    const auto c = sim::compare(
                        engine, base, nn::vgg16(), 64,
                        arch::Phase::Training);
                    planeRows[size_t(i)] = {
                        std::to_string(planeCounts[size_t(i)]),
                        TextTable::ratio(c.energyEfficiencyGain()),
                        TextTable::ratio(c.speedup())};
                }
            });
    }
    for (const auto &row : planeRows)
        tp.addRow(row);
    tp.print();
    std::printf("fewer planes -> more batch waves -> the training "
                "advantage shrinks; Table II's 64 planes match the "
                "batch size for a reason.\n");

    sim::printPhaseTimes();
}

} // namespace

INCA_BENCH_MAIN(report)
