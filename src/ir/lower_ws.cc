/**
 * @file
 * WS (baseline) lowering. The per-layer arithmetic is the former
 * baseline::BaselineEngine math, moved verbatim. The pipeline model
 * maps onto the IR as follows:
 *
 *  - inference: layer spans chain serially and fold to the analytic
 *    fill time; a synthetic drain span carries the steady-state term
 *    (batch - 1) x slowest (with the ISAAC 1.5x balancing clamp
 *    computed here, in the identical floating-point loop);
 *  - training: the per-layer fwd/bwd/upd spans are off-critical (the
 *    pipeline hides them; the analytic engine reports their costs per
 *    layer but never adds their latency) -- the critical chain is a
 *    synthetic "pipe" span per conv layer carrying passes x stage,
 *    then the drain, then the weight reload. The reload's LayerCost
 *    lands last in run.layers, exactly as the engine ordered it, and
 *    the final latency differs only by a commuted IEEE addition
 *    (a + b == b + a), so the total stays bit-exact.
 */

#include "ir/lower.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "arch/power.hh"
#include "baseline/mapping.hh"
#include "common/cache.hh"
#include "common/logging.hh"
#include "common/trace.hh"
#include "dataflow/access_model.hh"
#include "ir/lower_internal.hh"

namespace inca {
namespace ir {

using baseline::WsMapping;
using nn::LayerDesc;
using nn::LayerKind;

bool
wsWeightsReloaded(const arch::BaselineConfig &cfg,
                  const nn::NetworkDesc &net, bool training)
{
    // Training keeps a transposed copy next to the originals
    // (Limitation 2), doubling the cell demand.
    const double cellsNeeded = double(net.totalWeights()) *
                               cfg.weightBits *
                               (training ? 2.0 : 1.0);
    return cellsNeeded > double(cfg.totalCells());
}

double
wsBufferShare(const arch::BaselineConfig &cfg,
              const nn::NetworkDesc &net, const nn::LayerDesc &layer)
{
    // Layers share the chip's buffers in proportion to the crossbars
    // their pipeline stage occupies.
    const double totalArrays =
        double(baseline::arraysForNetwork(net, cfg));
    if (totalArrays == 0.0)
        return 0.0;
    const double layerArrays =
        double(baseline::mapLayer(layer, cfg).arrays());
    const double totalBuffer =
        double(cfg.org.numTiles) * cfg.buffer.capacity;
    return totalBuffer * layerArrays / totalArrays;
}

namespace {

// Instruction roles inside a WS conv-like stage group. Training
// appends one extra Move before the sync (RRAM stores), shifting the
// sync to index 5.
enum
{
    kLoad = 0,
    kMvm = 1,
    kReduce = 2,
    kMove = 3,
    kSync = 4,
    kStageCount = 5,
    kExtra = 4, ///< training-only extra Move
    kExtraSync = 5,
};

// Sizes of the WS-only groups: the weight reload (stream, program,
// sync) and a synthetic pipeline span.
enum
{
    kReloadCount = 3,
    kPipeCount = 1,
};

LayerGroup
forwardGroup(const arch::BaselineConfig &cfg, const nn::NetworkDesc &net,
             const LayerDesc &layer, int batchSize)
{
    trace::Span span(trace::spanName("ws.fwd ", layer.name));
    LayerGroup g(kStageCount);
    Instr &load = g[kLoad];
    Instr &mvm = g[kMvm];
    Instr &reduce = g[kReduce];
    Instr &move = g[kMove];
    Instr &sync = g[kSync];
    load.op = Op::Load;
    load.unit = Unit::Buffer;
    mvm.op = Op::Mvm;
    mvm.unit = Unit::Array;
    reduce.op = Op::Reduce;
    reduce.unit = Unit::Adc;
    move.op = Op::Move;
    move.unit = Unit::Buffer;
    sync.op = Op::Sync;
    sync.unit = Unit::Ctrl;

    const WsMapping m = baseline::mapLayer(layer, cfg);
    const double images = batchSize;
    const double wBits = cfg.weightBits;
    const double aBits = cfg.activationBits;
    const double s = cfg.subarraySize;

    // Window activations per image: every window position, every
    // input-bit cycle (bit-serial DAC streaming, ISAAC style).
    const double activations = double(m.windows) * aBits;

    // --- Array reads: the driven rows cross EVERY column of their
    // arrays (1T1R has no column gating), so unused columns still burn
    // read current -- the coarse-grained cost of Limitation 3. Per-
    // column sample-and-holds (as in ISAAC) keep the bias to one read
    // pulse while the shared ADC scans.
    const double activeCells = double(m.usedRows) *
                               double(m.colTiles) * s *
                               double(m.channelGroups);
    const double cellReads = activations * activeCells * images;
    mvm.stats.add(Stat::CountArrayRead, cellReads);
    mvm.stats.add(Stat::EnergyArrayRead,
                  cellReads * cfg.device.avgReadEnergy());

    // --- ADC: every column of every active array converts each cycle.
    const double conversions =
        activations * double(m.arrays()) * s * images;
    reduce.stats.add(Stat::CountAdc, conversions);
    reduce.stats.add(Stat::EnergyAdc,
                     conversions * cfg.adc().energyPerConversion);

    // --- DAC drivers on the used rows.
    mvm.stats.add(Stat::EnergyDac,
                  activations * double(m.usedRows) *
                      double(m.channelGroups) * images *
                      circuit::makeDac().energyPerActivation);

    // --- Digital: shift-accumulate per conversion, adders joining
    // row tiles, output registers.
    reduce.stats.add(Stat::EnergyDigitalShift,
                     conversions * cfg.digital.shiftAccumulate);
    const double outputs = double(layer.outputCount());
    reduce.stats.add(Stat::EnergyDigitalAdders,
                     outputs * aBits * images *
                         circuit::adderTreeEnergy(cfg.digital,
                                                  double(m.rowTiles)));
    reduce.stats.add(Stat::EnergyDigitalRegister,
                     outputs * images * 2.0 *
                         cfg.digital.registerAccess);

    // --- Buffers: inputs fetched per output element (Eq. 5 x OH x OW)
    // and outputs saved per position (Eq. 6) to keep the inter-layer
    // pipeline running (Limitation 1).
    const dataflow::AccessConfig acc{int(wBits),
                                     cfg.buffer.port.widthBits};
    const double fetchWords =
        double(dataflow::fetchWordsPerOutput(layer, acc)) *
        double(m.windows) * images;
    const double saveWords_ =
        double(dataflow::saveWords(layer, acc)) * images;
    load.stats.add(Stat::CountBufferRead, fetchWords);
    load.stats.add(Stat::EnergyBufferRead,
                   cfg.buffer.readEnergy(fetchWords));
    move.stats.add(Stat::CountBufferWrite, saveWords_);
    move.stats.add(Stat::EnergyBufferWrite,
                   cfg.buffer.writeEnergy(saveWords_));

    // --- DRAM: activations that exceed the stage's buffer share spill
    // off-chip (written by this layer, read back by the next).
    const double outBytes = outputs * aBits / 8.0;
    const double spill =
        std::max(0.0, outBytes - wsBufferShare(cfg, net, layer));
    double dramBytes = 2.0 * spill * images;
    move.stats.add(Stat::CountDramBytes, dramBytes);
    move.stats.add(Stat::EnergyDramActivation,
                   cfg.dram.accessEnergy(dramBytes));

    // --- Latency per image: windows stream through the crossbars one
    // per aBits cycles; all kernels' columns compute in parallel. The
    // fetch/save traffic pipelines with the reads (no exposed time).
    mvm.duration = activations * cfg.readCycle();
    reduce.deps = {kMvm};
    move.deps = {kReduce};
    sync.deps = {kLoad, kMvm, kReduce, kMove};
    return g;
}

LayerGroup
auxGroup(const arch::BaselineConfig &cfg, const LayerDesc &layer,
         int batchSize)
{
    trace::Span span(trace::spanName("ws.aux ", layer.name));
    LayerGroup g(kAuxCount);
    Instr &act = g[0];
    Instr &sync = g[1];
    act.op = Op::Activation;
    act.unit = Unit::Digital;
    sync.op = Op::Sync;
    sync.unit = Unit::Ctrl;
    sync.deps = {0};

    const double images = batchSize;
    const double outputs = double(layer.outputCount());
    switch (layer.kind) {
      case LayerKind::ReLU:
        act.stats.add(Stat::EnergyDigitalPost,
                      outputs * images * cfg.digital.reluOp);
        break;
      case LayerKind::MaxPool:
      case LayerKind::AvgPool:
        act.stats.add(Stat::EnergyDigitalPost,
                      outputs * images * double(layer.kh) * layer.kw *
                          cfg.digital.maxPoolCompare);
        break;
      case LayerKind::Add:
        act.stats.add(Stat::EnergyDigitalPost,
                      outputs * images * cfg.digital.adder8bit);
        break;
      default:
        break;
    }
    return g;
}

/** Copy @p g, inserting an extra Array Move (RRAM stores) before the
 *  sync; @p dep is the group-local index the store waits on. */
LayerGroup
withArrayStore(LayerGroup g, double cellWrites, Joules energy,
               Seconds duration, int dep)
{
    Instr store;
    store.op = Op::Move;
    store.unit = Unit::Array;
    store.stats.add(Stat::CountArrayWrite, cellWrites);
    store.stats.add(Stat::EnergyArrayWrite, energy);
    store.duration = duration;
    store.deps = {dep};
    Instr sync = g[g.count - 1];
    sync.deps.push_back(kExtra);
    g[g.count - 1] = store;
    g.push_back(sync);
    return g;
}

/** The weight-reload group (two instructions + sync). */
LayerGroup
reloadGroup(const arch::BaselineConfig &cfg, const nn::NetworkDesc &net,
            bool training)
{
    LayerGroup g(kReloadCount);
    Instr &load = g[0];
    Instr &move = g[1];
    Instr &sync = g[2];
    load.op = Op::Load;
    load.unit = Unit::Dram;
    move.op = Op::Move;
    move.unit = Unit::Array;
    move.deps = {0};
    sync.op = Op::Sync;
    sync.unit = Unit::Ctrl;
    sync.deps = {0, 1};

    // Originals (+ transposed copies when training), streamed and
    // programmed; rows program in parallel across arrays, so the
    // exposed time is the DRAM stream.
    const double weightBits =
        (training ? 2.0 : 1.0) * double(net.totalWeights()) *
        cfg.weightBits;
    const double bytes = weightBits / 8.0;
    load.stats.add(Stat::CountDramBytes, bytes);
    load.stats.add(Stat::EnergyDramWeights,
                   cfg.dram.accessEnergy(bytes));
    move.stats.add(Stat::EnergyArrayWrite,
                   weightBits * cfg.device.avgWriteEnergy());
    load.duration = cfg.dram.streamTime(bytes);
    return g;
}

/** Label + operand assignment for a conv stage span at @p base. */
void
nameStage(Program &p, int base, NameId name, Operand in, Operand weights,
          Operand out, int count)
{
    Instr &load = p.instrs[std::size_t(base + kLoad)];
    Instr &mvm = p.instrs[std::size_t(base + kMvm)];
    Instr &reduce = p.instrs[std::size_t(base + kReduce)];
    Instr &move = p.instrs[std::size_t(base + kMove)];
    load.label = {Verb::Fetch, name};
    load.reads = {in};
    load.writes = {{Role::Fetch, name}};
    mvm.label = {Verb::Mvm, name};
    mvm.reads = {{Role::Fetch, name}, weights};
    mvm.writes = {{Role::Psum, name}};
    reduce.label = {Verb::Reduce, name};
    reduce.reads = {{Role::Psum, name}};
    reduce.writes = {{Role::Out, name}};
    move.label = {Verb::Save, name};
    move.reads = {{Role::Out, name}};
    move.writes = {out};
    p.instrs[std::size_t(base + count - 1)].label = {Verb::Sync, name};
}

/** Append the weight-reload span and chain it after @p prevEnd;
 *  returns its completion. @p stream names the streamed weights. */
int
appendReload(Program &p, const LayerGroup &g, NameId stream,
             int prevEnd)
{
    const int base = appendSpan(p, g, "weight-reload", LayerKind::Conv,
                                false, false);
    Instr &load = p.instrs[std::size_t(base)];
    Instr &program = p.instrs[std::size_t(base + 1)];
    load.label = {Verb::ReloadStream};
    load.writes = {{Role::W, stream}};
    program.label = {Verb::ReloadProgram};
    program.reads = {{Role::W, stream}};
    p.instrs[std::size_t(base + 2)].label = {Verb::ReloadSync};
    chainAfter(p, base, prevEnd);
    return int(p.instrs.size()) - 1;
}

/** Append a one-instruction synthetic pipeline span of @p duration,
 *  labelled @p label, chained after @p prevEnd; returns its index. */
int
appendPipelineSpan(Program &p, const std::string &span, Label label,
                   nn::LayerKind kind, Seconds duration, int prevEnd)
{
    LayerGroup g(kPipeCount);
    g[0].op = Op::Sync;
    g[0].unit = Unit::Pipeline;
    g[0].duration = duration;
    const int base = appendSpan(p, g, span, kind, true, false);
    p.instrs[std::size_t(base)].label = label;
    chainAfter(p, base, prevEnd);
    return base;
}

} // namespace

Program
lowerWs(const arch::BaselineConfig &cfg, const nn::NetworkDesc &net,
        arch::Phase phase, int batchSize, const LowerOptions &opts)
{
    inca_assert(batchSize > 0, "batch size must be positive");
    const bool training = phase == arch::Phase::Training;
    Program p;
    p.network = net.name;
    p.engine = "ws";
    p.phase = phase;
    p.batchSize = batchSize;
    CacheKey cfgKey;
    arch::appendKey(cfgKey, cfg);
    p.configKeyHash = cfgKey.hash();
    p.idlePower = arch::baselineIdlePower(cfg);
    // The WS pipeline already overlaps analytically (fill + drain);
    // the overlap flag does not change its program.
    p.overlap = opts.overlap;

    // Size every table once. Inference: a stage group per conv-like
    // layer, an aux group per other layer. Training: per conv-like
    // layer the fwd stage group, the bwd and upd ones with their array
    // store, and a pipe span; per other layer two aux passes. Then the
    // drain, the reload and the exit.
    const std::size_t layers = net.layers.size();
    std::size_t convs = 0;
    for (const LayerDesc &layer : net.layers)
        convs += layer.isConvLike() ? 1 : 0;
    const std::size_t auxes = layers - convs;
    constexpr std::size_t convTraining =
        kStageCount + 2 * (kStageCount + 1) + kPipeCount;
    constexpr std::size_t tail = kPipeCount + kReloadCount + 1;
    p.instrs.reserve(training
                         ? convTraining * convs + 2 * kAuxCount * auxes +
                               tail
                         : kStageCount * convs + kAuxCount * auxes + tail);
    p.spans.reserve(training ? 4 * convs + 2 * auxes + 2 : layers + 2);
    p.names.reserve(training ? 3 + 2 * layers + convs : 2 + layers);
    p.inputs.reserve(training ? 2 + 2 * convs : 1 + convs);
    const Operand actIn{Role::Act, addName(p, "in")};
    const NameId stream = addName(p, "stream");
    p.inputs.push_back(actIn);
    Operand gradOut;
    if (training) {
        gradOut = {Role::Grad, addName(p, "out")};
        p.inputs.push_back(gradOut);
    }
    // Layer i's name is names[firstLayer + i].
    const NameId firstLayer = NameId(p.names.size());
    for (std::size_t i = 0; i < layers; ++i) {
        const LayerDesc &layer = net.layers[i];
        const NameId name = addName(p, layer.name);
        if (!layer.isConvLike())
            continue;
        p.inputs.push_back({Role::W, name});
        if (training)
            p.inputs.push_back({Role::WT, name});
    }

    int prevEnd = -1;     ///< last critical-chain completion
    int postedEnd = -1;   ///< last off-critical (posted) completion
    Operand prevAct = actIn;

    if (!training) {
        // The serial span chain embodies the analytic fill time.
        Seconds slowest = 0.0;
        Seconds stageSum = 0.0;
        int stages = 0;
        for (std::size_t i = 0; i < layers; ++i) {
            const LayerDesc &layer = net.layers[i];
            const NameId name = NameId(firstLayer + i);
            int base;
            if (layer.isConvLike()) {
                base = appendSpan(
                    p, forwardGroup(cfg, net, layer, batchSize),
                    layer.name, layer.kind, false, false);
                nameStage(p, base, name, prevAct, {Role::W, name},
                          {Role::Act, name}, kStageCount);
            } else {
                base = appendSpan(p, auxGroup(cfg, layer, batchSize),
                                  layer.name, layer.kind, false, false);
                Instr &act = p.instrs[std::size_t(base)];
                act.label = {Verb::Post, name};
                act.reads = {prevAct};
                act.writes = {{Role::Act, name}};
                p.instrs[std::size_t(base + 1)].label = {Verb::Sync,
                                                         name};
            }
            prevAct = {Role::Act, name};
            chainAfter(p, base, prevEnd);
            prevEnd = int(p.instrs.size()) - 1;
            // Per-image stage time; the pipeline overlaps images.
            const Seconds stage = spanLatency(p, p.spans.back());
            slowest = std::max(slowest, stage);
            if (layer.isConvLike()) {
                stageSum += stage;
                ++stages;
            }
        }

        // ISAAC balances its pipeline by replicating the weights of
        // the window-heavy early layers over spare crossbars; a
        // perfectly balanced pipeline would run at the mean stage
        // time, and the residual imbalance after replication is
        // modelled as 1.5x.
        constexpr double kPipelineImbalance = 1.5;
        if (stages > 0) {
            const Seconds balanced =
                kPipelineImbalance * stageSum / double(stages);
            slowest = std::min(slowest, balanced);
        }

        // Weight reloading when the model exceeds on-chip RRAM:
        // stream the weights from DRAM and reprogram once per batch.
        if (wsWeightsReloaded(cfg, net, false))
            prevEnd = appendReload(p, reloadGroup(cfg, net, false),
                                   stream, prevEnd);

        // ISAAC pipelining: fill once (the serial span chain above),
        // then one image per slowest stage -- the drain span.
        prevEnd = appendPipelineSpan(
            p, "drain", {Verb::Drain}, LayerKind::Conv,
            double(batchSize - 1) * slowest, prevEnd);
    } else {
        // Forward, error backpropagation, and weight-gradient passes
        // all run on the crossbars with comparable window/bit-cycle
        // structure. PipeLayer pipelines images through training too,
        // but -- unlike inference -- the pipeline cannot be balanced
        // by replicating the early layers' weights, because every
        // replica would have to be reprogrammed at each update. The
        // batch therefore drains at the raw slowest stage, three
        // passes deep. The per-layer spans are posted off-critical
        // (their costs are reported, their time is hidden); the
        // critical chain is pipe spans -> drain -> reload.
        Seconds slowest = 0.0;
        const double passes = 3.0;
        for (std::size_t i = 0; i < layers; ++i) {
            const LayerDesc &layer = net.layers[i];
            const NameId name = NameId(firstLayer + i);
            const NameId bwd = addName(p, layer.name + ".bwd");
            if (layer.isConvLike()) {
                const NameId upd = addName(p, layer.name + ".upd");
                const LayerGroup fwd =
                    forwardGroup(cfg, net, layer, batchSize);

                int base = appendSpan(p, fwd, layer.name, layer.kind,
                                      false, true);
                nameStage(p, base, name, prevAct, {Role::W, name},
                          {Role::Act, name}, kStageCount);
                chainAfter(p, base, postedEnd);
                postedEnd = int(p.instrs.size()) - 1;
                const Seconds stage =
                    spanLatency(p, p.spans.back());
                prevAct = {Role::Act, name};

                // The backward pass reads the transposed-weight copy;
                // the update pass writes activations/errors to RRAM
                // and reprograms the weight cells (original +
                // transposed). The pipelined abstraction does not
                // track the per-layer gradient chain, so every
                // backward stage consumes the streaming loss gradient.
                const double aBits = cfg.activationBits;
                const double actWrites =
                    double(layer.inputCount()) * aBits * batchSize;
                base = appendSpan(
                    p,
                    withArrayStore(fwd, actWrites,
                                   actWrites *
                                       cfg.device.avgWriteEnergy(),
                                   0.0, kMove),
                    p.names[bwd], layer.kind, false, true);
                nameStage(p, base, bwd, gradOut, {Role::WT, name},
                          {Role::Grad, name}, kStageCount + 1);
                p.instrs[std::size_t(base + kExtra)].label = {
                    Verb::StoreActs, name};
                p.instrs[std::size_t(base + kExtra)].reads = {
                    {Role::Grad, name}};
                chainAfter(p, base, postedEnd);
                postedEnd = int(p.instrs.size()) - 1;

                const double weightCellWrites =
                    2.0 * double(layer.weightCount()) * cfg.weightBits;
                base = appendSpan(
                    p,
                    withArrayStore(fwd, weightCellWrites,
                                   weightCellWrites *
                                       cfg.device.avgWriteEnergy(),
                                   weightCellWrites > 0.0
                                       ? cfg.device.tWrite
                                       : 0.0,
                                   kMove),
                    p.names[upd], layer.kind, false, true);
                nameStage(p, base, upd, {Role::Grad, name},
                          {Role::W, name}, {Role::Dw, name},
                          kStageCount + 1);
                p.instrs[std::size_t(base + kExtra)].label = {
                    Verb::ProgramWeights, name};
                p.instrs[std::size_t(base + kExtra)].reads = {
                    {Role::Dw, name}};
                chainAfter(p, base, postedEnd);
                postedEnd = int(p.instrs.size()) - 1;

                slowest = std::max(slowest, stage);

                // Critical chain: three pipelined passes of this
                // stage (fill += passes * stage).
                prevEnd = appendPipelineSpan(
                    p, "pipe." + layer.name, {Verb::Pipe, name},
                    layer.kind, passes * stage, prevEnd);
            } else {
                const LayerGroup aux =
                    auxGroup(cfg, layer, batchSize);
                for (const NameId pass : {name, bwd}) {
                    const bool backward = pass == bwd;
                    const int base =
                        appendSpan(p, aux, p.names[pass], layer.kind,
                                   false, true);
                    Instr &act = p.instrs[std::size_t(base)];
                    act.label = {Verb::Post, pass};
                    act.reads = {backward ? gradOut : prevAct};
                    act.writes = {
                        {backward ? Role::Grad : Role::Act, pass}};
                    p.instrs[std::size_t(base + 1)].label = {Verb::Sync,
                                                             pass};
                    chainAfter(p, base, postedEnd);
                    postedEnd = int(p.instrs.size()) - 1;
                    if (!backward)
                        prevAct = {Role::Act, pass};
                }
            }
        }

        // Images pipeline through the three passes at the unbalanced
        // slowest stage.
        prevEnd = appendPipelineSpan(
            p, "drain", {Verb::Drain}, LayerKind::Conv,
            double(batchSize - 1) * passes * slowest, prevEnd);

        // The reload LayerCost lands after the per-layer rows, as the
        // engine ordered it; its latency joins the total by one
        // commuted addition (see file comment).
        if (wsWeightsReloaded(cfg, net, true))
            prevEnd = appendReload(p, reloadGroup(cfg, net, true),
                                   stream, prevEnd);
    }

    sealProgram(p, prevEnd);
    validate(p);
    return p;
}

} // namespace ir
} // namespace inca
