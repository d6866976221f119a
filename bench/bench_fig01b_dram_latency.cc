/**
 * @file
 * Figure 1b: DRAM loaded latency versus sustained-bandwidth
 * utilization. The paper's motivation figure (after [34], [49]) shows
 * latency increasing exponentially beyond ~80 % of the maximum
 * sustained bandwidth -- the reason off-chip-dependent WS designs
 * cannot simply buy more bandwidth.
 */

#include "bench_common.hh"

#include "common/table.hh"
#include "common/units.hh"
#include "memory/dram.hh"
#include "sim/plot.hh"

namespace {

using namespace inca;

void
report()
{
    bench::banner("Figure 1b: DRAM latency vs. sustained-bandwidth "
                  "utilization");
    const memory::Dram dram = memory::paperDram();
    TextTable t({"utilization", "loaded latency", "vs. idle"});
    const double points[] = {0.0,  0.10, 0.20, 0.30, 0.40, 0.50,
                             0.60, 0.70, 0.80, 0.85, 0.90, 0.93,
                             0.95, 0.97, 0.99};
    const Seconds idle = dram.loadedLatency(0.0);
    for (double u : points) {
        const Seconds lat = dram.loadedLatency(u);
        t.addRow({TextTable::num(u, 2), formatSi(lat, "s"),
                  TextTable::ratio(lat / idle)});
    }
    t.print();
    std::vector<sim::Point> series;
    for (int u = 0; u <= 99; ++u) {
        series.push_back({double(u) / 100.0,
                          dram.loadedLatency(double(u) / 100.0) * 1e9});
        bench::JsonReport::instance().addPoint(
            "loaded_latency_ns", TextTable::num(series.back().x, 2),
            series.back().y);
    }
    sim::LineOptions lopt;
    lopt.logY = true;
    std::printf("\nlatency [ns] vs. utilization (the Fig. 1b curve):\n%s",
                sim::lineChart(series, lopt).c_str());
    std::printf("knee at %.0f%% utilization; latency roughly doubles "
                "per +3%% beyond it (paper: \"latency increases "
                "exponentially in the region beyond 80%%\")\n",
                100.0 * dram.kneeUtilization);
}

} // namespace

INCA_BENCH_MAIN(report)
