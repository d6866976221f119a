#include "sim/paper.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>

#include "arch/area.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "dataflow/access_model.hh"
#include "dataflow/footprint.hh"
#include "dataflow/unroll.hh"
#include "memory/dram.hh"
#include "nn/model_zoo.hh"
#include "sim/report.hh"

namespace inca {
namespace sim {
namespace {

/* ------------------------------------------------------------------ */
/* Causes shared by several rows                                      */
/* ------------------------------------------------------------------ */

const char *const kSynthetic = "synthetic substitution (DESIGN §1)";

const char *const kWsEquations =
    "unexplained: we count the printed Eq. 5 x O_H x O_W + Eq. 6. "
    "Ruled out: one constant factor such as another precision or bus "
    "width (ours / paper runs from 0.86 on resnet18 to 1.93 on vgg16)";

const char *const kIsExtraTerm =
    "the paper sits +288 (vgg16, vgg19) and +32 (resnet18) above ours. "
    "Each of our per-layer counts on the heavy networks is a multiple "
    "of 64, and 508,950 (resnet50) is not even a multiple of 4, so the "
    "paper's totals hold a term, rounding or typo the printed Eq. 5 x N "
    "does not produce";

const char *const kResnet50Accesses =
    "unexplained. Ruled out: the stride placement (Eq. 5 x N does not "
    "depend on stride; moving it to the 1x1 conv changes only the "
    "baseline column, 1,034,096 -> 984,704) and the four downsample "
    "convs (without them ours is 646,464, still +27 %)";

const char *const kDepthwiseMobilenet =
    "depthwise kernels: ours fetches each 3x3 depthwise kernel as its "
    "own bus word; packing a layer's kernels back to back gives +2.6 %. "
    "Which one the paper means is open";

const char *const kDepthwiseMnasnet =
    "depthwise kernels: ours fetches each 3x3 depthwise kernel as its "
    "own bus word; packing a layer's kernels back to back gives +5.1 %, "
    "and that rest is unexplained. Which one the paper means is open";

const char *const kCell1T1R =
    "the paper rounds the scaled 1T1R cell to 0.030 um^2; the exact "
    "540 x 485 nm x 0.34^2 is 0.0303 um^2 (+0.9 %)";

const char *const kCell2T1R =
    "the paper rounds the scaled 16-cell 2T1R stack to 0.048 um^2; the "
    "exact 600 x 700 nm x 0.34^2 is 0.0486 um^2 (+1.2 %)";

const char *const kFig7a =
    "the paper's value is approximate (\"from 2x (ResNets) to 3x "
    "(VGGs)\"); our WS side is Table III's baseline accounting at 16 "
    "bits, whose gap is unexplained (see the Table III baseline rows)";

const char *const kFig7bUnexplained =
    "unexplained: both VGGs are stride-1 3x3 stacks, so each input sits "
    "in ~9 windows and ours is 9.0x for both, yet the paper prints 4.4x "
    "and 5.0x. Ruled out (vgg16 / resnet18): dropping the classifier "
    "(9.00x / 6.73x), padded inputs in the direct term (8.48x / 6.03x), "
    "no padded zeros in the windows (8.80x / 6.45x), and each layer's "
    "output in the direct term too (3.61x / 3.15x)";

const char *const kEngineUnexplained =
    "unexplained. Ruled out: the model inputs the paper prints, which "
    "we reproduce: chip areas (Table V, within 1.2 %), INCA buffer "
    "accesses (Table III, within 0.1 % on vgg16, vgg19, resnet18) and "
    "batch 64. Not printed, so not checked: the WS chip's leakage over "
    "its makespan and its PipeLayer serialization";

const char *const kAdcRule =
    "the paper's ~5x is approximate; ours is E(8-bit) = 4 x E(4-bit) "
    "times the conversion counts (515.3 G baseline vs 447.4 G INCA), "
    "4 x 1.152 = 4.6x";

/* ------------------------------------------------------------------ */
/* The published values                                               */
/* ------------------------------------------------------------------ */

/** The tolerance ladder, tightest first. */
const double kRungs[] = {1.001, 1.005, 1.01, 1.02, 1.05, 1.1,
                         1.25,  1.5,   2,    3,    5,    10};

struct Published
{
    const char *name;
    double paper;
    double tolerance; ///< 0: a training row, no tolerance
    const char *cause;
};

const Published kPublished[] = {
    // Fig. 1b: "latency increases exponentially in the region beyond
    // 80 %" of the sustained bandwidth.
    {"Fig. 1b DRAM latency knee (utilization)", 0.80, 1.001, ""},

    // Table I (from [21]): ImageNet accuracy drop vs. float, %.
    {"Table I drop W8/A7 (%)", -0.3, 0, kSynthetic},
    {"Table I drop W8/A6 (%)", -0.4, 0, kSynthetic},
    {"Table I drop W8/A5 (%)", -1.3, 0, kSynthetic},
    {"Table I drop W8/A4 (%)", -3.5, 0, kSynthetic},
    {"Table I drop W7/A8 (%)", -1.3, 0, kSynthetic},
    {"Table I drop W6/A8 (%)", -1.1, 0, kSynthetic},
    {"Table I drop W5/A8 (%)", -3.1, 0, kSynthetic},
    {"Table I drop W4/A8 (%)", -11.4, 0, kSynthetic},

    // Table III: inference buffer accesses, 8-bit data, 256-bit bus.
    {"Table III baseline vgg16", 1544496, 2, kWsEquations},
    {"Table III INCA vgg16", 460000, 1.001, kIsExtraTerm},
    {"Table III baseline vgg19", 1952176, 2, kWsEquations},
    {"Table III INCA vgg19", 625888, 1.001, kIsExtraTerm},
    {"Table III baseline resnet18", 632880, 1.25, kWsEquations},
    {"Table III INCA resnet18", 349024, 1.001, kIsExtraTerm},
    {"Table III baseline resnet50", 711022, 1.5, kWsEquations},
    {"Table III INCA resnet50", 508950, 1.5, kResnet50Accesses},
    {"Table III baseline mobilenetv2", 258024, 1.5, kWsEquations},
    {"Table III INCA mobilenetv2", 66832, 1.25, kDepthwiseMobilenet},
    {"Table III baseline mnasnet", 244656, 1.5, kWsEquations},
    {"Table III INCA mnasnet", 92333, 1.1, kDepthwiseMnasnet},

    // Table IV: memory footprint for inference + training, MiB.
    {"Table IV baseline RRAM vgg16", 272.57, 1.001, ""},
    {"Table IV baseline buffers vgg16", 8.69, 1.001, ""},
    {"Table IV INCA RRAM vgg16", 8.69, 1.001, ""},
    {"Table IV INCA buffers vgg16", 131.94, 1.001, ""},
    {"Table IV baseline RRAM vgg19", 283.94, 1.001, ""},
    {"Table IV baseline buffers vgg19", 9.94, 1.001, ""},
    {"Table IV INCA RRAM vgg19", 9.94, 1.001, ""},
    {"Table IV INCA buffers vgg19", 137.00, 1.001, ""},
    {"Table IV baseline RRAM resnet18", 24.36, 1.001, ""},
    {"Table IV baseline buffers resnet18", 2.08, 1.001, ""},
    {"Table IV INCA RRAM resnet18", 2.08, 1.001, ""},
    {"Table IV INCA buffers resnet18", 11.14, 1.001, ""},
    {"Table IV baseline RRAM resnet50", 58.79, 1.001, ""},
    {"Table IV baseline buffers resnet50", 10.15, 1.005, ""},
    {"Table IV INCA RRAM resnet50", 10.15, 1.005, ""},
    {"Table IV INCA buffers resnet50", 24.32, 1.001, ""},
    {"Table IV baseline RRAM mobilenetv2", 13.05, 1.005, ""},
    {"Table IV baseline buffers mobilenetv2", 6.45, 1.001, ""},
    {"Table IV INCA RRAM mobilenetv2", 6.45, 1.001, ""},
    {"Table IV INCA buffers mobilenetv2", 3.31, 1.001, ""},
    {"Table IV baseline RRAM mnasnet", 13.57, 1.001, ""},
    {"Table IV baseline buffers mnasnet", 5.29, 1.001, ""},
    {"Table IV INCA RRAM mnasnet", 5.29, 1.001, ""},
    {"Table IV INCA buffers mnasnet", 4.14, 1.001, ""},

    // Table V: chip area breakdown, mm^2, and Section V-B-6's
    // one-crossbar and one-stack areas, um^2.
    {"Table V baseline Buffer", 13.944, 1.001, ""},
    {"Table V INCA Buffer", 13.944, 1.001, ""},
    {"Table V baseline Array", 7.927, 1.01, kCell1T1R},
    {"Table V INCA Array", 0.793, 1.02, kCell2T1R},
    {"Table V baseline ADC", 30.298, 1.001, ""},
    {"Table V INCA ADC", 4.5864, 1.005, ""},
    {"Table V baseline DAC", 0.343, 1.001, ""},
    {"Table V INCA DAC", 0.686, 1.001, ""},
    {"Table V baseline Post-processing", 3.656, 1.001, ""},
    {"Table V INCA Post-processing", 3.656, 1.001, ""},
    {"Table V baseline Others", 27.920, 1.001, ""},
    {"Table V INCA Others", 24.249, 1.001, ""},
    {"Table V baseline Total", 84.088, 1.001, kCell1T1R},
    {"Table V INCA Total", 47.914, 1.001, ""},
    {"Sec. V-B-6 baseline crossbar (um^2)", 491.52, 1.01, kCell1T1R},
    {"Sec. V-B-6 INCA 3D stack (um^2)", 49.152, 1.02, kCell2T1R},

    // Table VI: ResNet18 training accuracy under RRAM noise, %.
    {"Table VI weights noisy sigma 0.005 (%)", 82.13, 0, kSynthetic},
    {"Table VI activations noisy sigma 0.005 (%)", 89.21, 0, kSynthetic},
    {"Table VI weights noisy sigma 0.010 (%)", 77.03, 0, kSynthetic},
    {"Table VI activations noisy sigma 0.010 (%)", 89.02, 0, kSynthetic},
    {"Table VI weights noisy sigma 0.020 (%)", 58.36, 0, kSynthetic},
    {"Table VI activations noisy sigma 0.020 (%)", 88.50, 0, kSynthetic},
    {"Table VI weights noisy sigma 0.030 (%)", 48.57, 0, kSynthetic},
    {"Table VI activations noisy sigma 0.030 (%)", 87.54, 0, kSynthetic},
    {"Table VI weights noisy sigma 0.050 (%)", 15.17, 0, kSynthetic},
    {"Table VI activations noisy sigma 0.050 (%)", 85.59, 0, kSynthetic},

    // Fig. 7a: WS / IS accesses, 16-bit data, 256-bit bus.
    {"Fig. 7a WS/IS vgg16", 3.0, 3, kFig7a},
    {"Fig. 7a WS/IS vgg19", 3.0, 2, kFig7a},
    {"Fig. 7a WS/IS resnet18", 2.0, 1.5, kFig7a},
    {"Fig. 7a WS/IS resnet50", 2.0, 1.5, kFig7a},

    // Fig. 7b: unrolled / direct IS input parameters.
    {"Fig. 7b unrolled/direct vgg16", 4.4, 3, kFig7bUnexplained},
    {"Fig. 7b unrolled/direct vgg19", 5.0, 2, kFig7bUnexplained},
    {"Fig. 7b unrolled/direct resnet18", 8.0, 1.25, kFig7bUnexplained},
    {"Fig. 7b unrolled/direct resnet50", 2.1, 1.05, kFig7bUnexplained},

    // Fig. 11: energy-efficiency gain, INCA over WS, batch 64.
    {"Fig. 11a inference gain vgg16", 20.6, 1.1, kEngineUnexplained},
    {"Fig. 11a inference gain vgg19", 15.9, 1.25, kEngineUnexplained},
    {"Fig. 11a inference gain resnet18", 8.7, 3, kEngineUnexplained},
    {"Fig. 11a inference gain resnet50", 8.0, 2, kEngineUnexplained},
    {"Fig. 11a inference gain mobilenetv2", 80, 3, kEngineUnexplained},
    {"Fig. 11a inference gain mnasnet", 83, 3, kEngineUnexplained},
    {"Fig. 11b training gain vgg16", 260, 5, kEngineUnexplained},
    {"Fig. 11b training gain vgg19", 202, 5, kEngineUnexplained},
    {"Fig. 11b training gain resnet18", 103, 1.25, kEngineUnexplained},
    {"Fig. 11b training gain resnet50", 152, 3, kEngineUnexplained},
    {"Fig. 11b training gain mobilenetv2", 3873, 10, kEngineUnexplained},
    {"Fig. 11b training gain mnasnet", 2790, 5, kEngineUnexplained},

    // Fig. 13a: ADC energy, baseline over INCA, VGG16.
    {"Fig. 13a ADC energy reduction vgg16", 5.0, 1.1, kAdcRule},

    // Fig. 14: speedup, INCA over WS, batch 64.
    {"Fig. 14a inference speedup vgg16", 4.6, 1.1, kEngineUnexplained},
    {"Fig. 14a inference speedup vgg19", 3.7, 1.5, kEngineUnexplained},
    {"Fig. 14a inference speedup resnet18", 1.9, 2, kEngineUnexplained},
    {"Fig. 14a inference speedup resnet50", 4.8, 2, kEngineUnexplained},
    {"Fig. 14a inference speedup mobilenetv2", 201, 2, kEngineUnexplained},
    {"Fig. 14a inference speedup mnasnet", 85, 2, kEngineUnexplained},
    {"Fig. 14b training speedup vgg16", 18.6, 1.02, kEngineUnexplained},
    {"Fig. 14b training speedup vgg19", 14.2, 1.05, kEngineUnexplained},
    {"Fig. 14b training speedup resnet18", 7.2, 3, kEngineUnexplained},
    {"Fig. 14b training speedup resnet50", 6.8, 3, kEngineUnexplained},
    {"Fig. 14b training speedup mobilenetv2", 1187, 3, kEngineUnexplained},
    {"Fig. 14b training speedup mnasnet", 363, 1.5, kEngineUnexplained},
    // Section V-B-2: the baseline's read cycle is ~2x INCA's write.
    {"Sec. V-B-2 baseline read / INCA write cycle", 2.0, 1.001, ""},
};

const Published &
published(const std::string &name)
{
    for (const Published &p : kPublished) {
        if (name == p.name)
            return p;
    }
    panic("no published value named '%s'", name.c_str());
}

std::string
shortNumber(double v)
{
    if (std::fabs(v) >= 1000.0)
        return TextTable::count(v);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.5g", v);
    return buf;
}

} // namespace

double
PaperRow::gap() const
{
    return std::max(ours / paper, paper / ours);
}

double
tightestRung(double gap)
{
    for (const double rung : kRungs) {
        if (gap <= rung)
            return rung;
    }
    return 0.0;
}

double
paperValue(const std::string &name)
{
    return published(name).paper;
}

PaperRow
paperRow(const std::string &name, double ours)
{
    const Published &p = published(name);
    return {p.name, p.paper, ours, p.tolerance, p.cause};
}

std::vector<PaperRow>
analyticRows()
{
    std::vector<PaperRow> rows;
    const auto add = [&](const std::string &name, double ours) {
        rows.push_back(paperRow(name, ours));
    };
    const auto suite = nn::evaluationSuite();

    add("Fig. 1b DRAM latency knee (utilization)",
        memory::paperDram().kneeUtilization);

    const dataflow::AccessConfig access{8, 256};
    for (const auto &net : suite) {
        const auto a = dataflow::networkAccesses(net, access);
        add("Table III baseline " + net.name, double(a.baseline));
        add("Table III INCA " + net.name, double(a.inca));
    }

    for (const auto &net : suite) {
        const auto f = dataflow::footprint(net);
        add("Table IV baseline RRAM " + net.name,
            dataflow::toMiB(f.baseline.rram));
        add("Table IV baseline buffers " + net.name,
            dataflow::toMiB(f.baseline.buffers));
        add("Table IV INCA RRAM " + net.name,
            dataflow::toMiB(f.inca.rram));
        add("Table IV INCA buffers " + net.name,
            dataflow::toMiB(f.inca.buffers));
    }

    const auto baseArea = arch::baselineArea(arch::paperBaseline());
    const auto incaArea = arch::incaArea(arch::paperInca());
    const struct
    {
        const char *name;
        double base, inca; // m^2
    } area[] = {
        {"Buffer", baseArea.buffer, incaArea.buffer},
        {"Array", baseArea.array, incaArea.array},
        {"ADC", baseArea.adc, incaArea.adc},
        {"DAC", baseArea.dac, incaArea.dac},
        {"Post-processing", baseArea.postProcessing,
         incaArea.postProcessing},
        {"Others", baseArea.others, incaArea.others},
        {"Total", baseArea.total(), incaArea.total()},
    };
    for (const auto &a : area) {
        add(std::string("Table V baseline ") + a.name, a.base * 1e6);
        add(std::string("Table V INCA ") + a.name, a.inca * 1e6);
    }
    add("Sec. V-B-6 baseline crossbar (um^2)",
        arch::baselineSubarrayArea(arch::paperBaseline()) * 1e12);
    add("Sec. V-B-6 INCA 3D stack (um^2)",
        arch::incaStackArea(arch::paperInca()) * 1e12);

    const dataflow::AccessConfig wide{16, 256};
    for (const auto &net : nn::heavySuite())
        add("Fig. 7a WS/IS " + net.name,
            dataflow::networkAccesses(net, wide).ratio());
    for (const auto &net : nn::heavySuite())
        add("Fig. 7b unrolled/direct " + net.name,
            dataflow::unrollComparison(net).ratio());

    const core::IncaEngine inca(arch::paperInca());
    const baseline::BaselineEngine base(arch::paperBaseline());
    std::vector<Comparison> inference, training;
    for (const auto &net : suite) {
        inference.push_back(
            compare(inca, base, net, 64, arch::Phase::Inference));
        training.push_back(
            compare(inca, base, net, 64, arch::Phase::Training));
    }
    for (const auto &c : inference)
        add("Fig. 11a inference gain " + c.network,
            c.energyEfficiencyGain());
    for (const auto &c : training)
        add("Fig. 11b training gain " + c.network,
            c.energyEfficiencyGain());
    add("Fig. 13a ADC energy reduction vgg16",
        inference[0].baseline.sum("energy.adc") /
            inference[0].inca.sum("energy.adc"));
    for (const auto &c : inference)
        add("Fig. 14a inference speedup " + c.network, c.speedup());
    for (const auto &c : training)
        add("Fig. 14b training speedup " + c.network, c.speedup());
    add("Sec. V-B-2 baseline read / INCA write cycle",
        arch::paperBaseline().readCycle() /
            arch::paperInca().device.tWrite);

    // Every published value with a tolerance is computed above.
    const auto analytic = std::count_if(
        std::begin(kPublished), std::end(kPublished),
        [](const Published &p) { return p.tolerance > 0.0; });
    inca_assert(rows.size() == size_t(analytic),
                "%zu analytic rows for %zu published values",
                rows.size(), size_t(analytic));
    return rows;
}

std::string
scoreboardText(const std::vector<PaperRow> &rows)
{
    std::vector<std::string> causes;
    TextTable t({"row", "paper", "ours", "gap", "tolerance", "cause"});
    for (const PaperRow &r : rows) {
        std::string note = "-";
        if (!r.cause.empty()) {
            auto it = std::find(causes.begin(), causes.end(), r.cause);
            if (it == causes.end())
                it = causes.insert(causes.end(), r.cause);
            note = "[" + std::to_string(it - causes.begin() + 1) + "]";
        }
        const bool ranked = r.tolerance > 0.0;
        t.addRow({r.name, shortNumber(r.paper), shortNumber(r.ours),
                  ranked ? TextTable::num(r.gap(), 4) : "-",
                  ranked ? shortNumber(r.tolerance) : "-", note});
    }
    std::string out = t.str();
    for (size_t i = 0; i < causes.size(); ++i)
        out += "[" + std::to_string(i + 1) + "] " + causes[i] + "\n";
    return out;
}

} // namespace sim
} // namespace inca
