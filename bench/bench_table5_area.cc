/**
 * @file
 * Table V: chip area breakdown of the baseline and INCA. The 3D
 * stacking of the 2T1R planes (16 cells per projected footprint) and
 * the 4-bit ADCs give INCA a 47.9 vs. 84.1 mm^2 advantage despite the
 * larger two-transistor cell.
 */

#include "bench_common.hh"

#include "arch/area.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace {

using namespace inca;

void
report()
{
    bench::banner("Table V: area breakdown [mm^2]");
    const auto base = arch::baselineArea(arch::paperBaseline());
    const auto inca = arch::incaArea(arch::paperInca());

    const struct
    {
        const char *name;
        double ours[2];
        double paper[2]; // baseline, INCA
    } rows[] = {
        {"Buffer", {base.buffer * 1e6, inca.buffer * 1e6},
         {13.944, 13.944}},
        {"Array", {base.array * 1e6, inca.array * 1e6},
         {7.927, 0.793}},
        {"ADC", {base.adc * 1e6, inca.adc * 1e6}, {30.298, 4.5864}},
        {"DAC", {base.dac * 1e6, inca.dac * 1e6}, {0.343, 0.686}},
        {"Post-processing",
         {base.postProcessing * 1e6, inca.postProcessing * 1e6},
         {3.656, 3.656}},
        {"Others", {base.others * 1e6, inca.others * 1e6},
         {27.920, 24.249}},
        {"Total", {base.total() * 1e6, inca.total() * 1e6},
         {84.088, 47.914}},
    };

    TextTable t({"component", "baseline", "(paper)", "INCA",
                 "(paper)"});
    for (const auto &row : rows) {
        t.addRow({row.name, TextTable::num(row.ours[0], 3),
                  TextTable::num(row.paper[0], 3),
                  TextTable::num(row.ours[1], 3),
                  TextTable::num(row.paper[1], 3)});
    }
    t.print();
    std::printf("one baseline crossbar: %.2f um^2; one INCA 3D "
                "stack: %.2f um^2 (paper: 491.52 vs 49.152 um^2)\n",
                arch::baselineSubarrayArea(arch::paperBaseline()) *
                    1e12,
                arch::incaStackArea(arch::paperInca()) * 1e12);
}

} // namespace

INCA_BENCH_MAIN(report)
