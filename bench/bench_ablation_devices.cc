/**
 * @file
 * Paper Section VI implemented: IS dataflow on PIM technologies
 * beyond RRAM. The paper leaves "IS implementation into other designs
 * as our future work to exploit more stable properties of other
 * hardware candidates"; this bench runs the INCA engine with device
 * presets for PCM, FeFET and SRAM-CIM next to the Table II RRAM and
 * reports the trade the paper anticipates: stabler technologies buy
 * endurance (and sometimes speed) at area or volatility cost.
 */

#include "bench_common.hh"

#include <vector>

#include "arch/endurance.hh"
#include "circuit/devices.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "common/units.hh"
#include "inca/engine.hh"
#include "nn/model_zoo.hh"
#include "sim/report.hh"

namespace {

using namespace inca;

std::string
sci(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1e", v);
    return buf;
}

void
report()
{
    bench::banner("Section VI: IS dataflow on alternative PIM "
                  "devices (ResNet18, training, batch 64)");
    const auto net = nn::resnet18();

    // Device presets are independent: fan them across the pool into
    // pre-sized row slots so the table is identical at any thread
    // count.
    TextTable t({"device", "E/batch", "t/batch", "standby",
                 "wear-out iters", "cell area vs 2T1R"});
    const auto presets = circuit::allDevicePresets();
    std::vector<std::vector<std::string>> rows(presets.size());
    {
        sim::ScopedPhaseTimer timer("device sweep");
        parallel_for(
            std::int64_t(presets.size()), 1,
            [&](std::int64_t lo, std::int64_t hi) {
                for (std::int64_t i = lo; i < hi; ++i) {
                    const auto &preset = presets[size_t(i)];
                    arch::IncaConfig cfg = arch::paperInca();
                    cfg.device = preset.device;
                    core::IncaEngine engine(cfg);
                    const auto run = engine.training(net, 64);
                    // Volatile technologies pay retention power over
                    // the run.
                    const Joules standby =
                        preset.standbyPowerPerCell *
                        double(cfg.totalCells()) * run.latency;
                    const auto wear = arch::incaEndurance(
                        net, cfg, 64, preset.endurance);
                    char area[32];
                    std::snprintf(area, sizeof(area), "%.1fx",
                                  preset.cellAreaFactor);
                    rows[size_t(i)] = {
                        preset.name,
                        formatSi(run.energy() + standby, "J"),
                        formatSi(run.latency, "s"),
                        preset.nonVolatile ? "-"
                                           : formatSi(standby, "J"),
                        sci(wear.iterationsToWearOut), area};
                }
            });
    }
    for (const auto &row : rows)
        t.addRow(row);
    t.print();
    std::printf("the trade the paper anticipates: FeFET/SRAM-CIM "
                "extend the write-endurance horizon by 1-7 orders of "
                "magnitude; PCM's hot writes cost energy and time; "
                "SRAM pays volatility (standby) and ~6x cell area.\n");

    sim::printPhaseTimes();
}

} // namespace

INCA_BENCH_MAIN(report)
