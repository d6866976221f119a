#include "serving/cost_model.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "arch/power.hh"
#include "common/cache.hh"
#include "common/logging.hh"
#include "event/event.hh"
#include "ir/lower.hh"

namespace inca {
namespace serving {

namespace {

/** Activation bytes a batch carries out of @p layer. */
double
activationBytes(const nn::LayerDesc &layer, int batch,
                int activationBits)
{
    return double(layer.outputCount()) * double(batch) *
           double(activationBits) / 8.0;
}

/** name -> layer lookup for mapping RunCost rows back to shapes. */
std::unordered_map<std::string, const nn::LayerDesc *>
layerIndex(const nn::NetworkDesc &net)
{
    std::unordered_map<std::string, const nn::LayerDesc *> by;
    for (const auto &layer : net.layers)
        by.emplace(layer.name, &layer);
    return by;
}

/**
 * Partition the per-layer latencies into @p stages contiguous groups
 * with a greedy balanced-prefix rule: close a stage once its running
 * sum reaches the ideal boundary. Returns the index of each stage's
 * last layer.
 */
std::vector<std::size_t>
stageCuts(const std::vector<arch::LayerCost> &layers, int stages)
{
    double total = 0.0;
    for (const auto &l : layers)
        total += l.latency;
    std::vector<std::size_t> cuts;
    double prefix = 0.0;
    int stage = 1;
    for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
        prefix += layers[i].latency;
        const double boundary =
            total * double(stage) / double(stages);
        // Keep enough layers for the remaining stages.
        const std::size_t remainingLayers = layers.size() - 1 - i;
        const std::size_t remainingStages =
            std::size_t(stages - stage);
        if ((prefix >= boundary && stage < stages) ||
            remainingLayers == remainingStages) {
            cuts.push_back(i);
            ++stage;
            if (stage == stages)
                break;
        }
    }
    cuts.push_back(layers.size() - 1);
    return cuts;
}

} // namespace

const char *
shardKindName(ShardKind kind)
{
    switch (kind) {
      case ShardKind::Replica:
        return "replica";
      case ShardKind::Pipeline:
        return "pipeline";
      case ShardKind::Tensor:
        return "tensor";
    }
    panic("unreachable shard kind %d", int(kind));
}

ShardKind
shardKindByName(const std::string &name)
{
    if (name == "layer-pipeline")
        return ShardKind::Pipeline;
    for (const ShardKind k :
         {ShardKind::Replica, ShardKind::Pipeline,
          ShardKind::Tensor}) {
        if (name == shardKindName(k))
            return k;
    }
    fatal("unknown shard kind '%s' (expected replica, pipeline, or "
          "tensor)",
          name.c_str());
}

BatchCostModel::BatchCostModel(const arch::IncaConfig &cfg,
                               ShardSpec shard)
    : inca_(true), incaCfg_(cfg), shard_(shard)
{
    if (shard_.kind == ShardKind::Replica)
        shard_.chips = 1;
    inca_assert(shard_.chips >= 1, "shard needs at least one chip");
    chipIdleW_ = arch::incaIdlePower(incaCfg_);
    CacheKey key;
    arch::appendKey(key, incaCfg_);
    configKeyHash_ = key.hash();
}

BatchCostModel::BatchCostModel(const arch::BaselineConfig &cfg,
                               ShardSpec shard)
    : inca_(false), wsCfg_(cfg), shard_(shard)
{
    if (shard_.kind == ShardKind::Replica)
        shard_.chips = 1;
    inca_assert(shard_.chips >= 1, "shard needs at least one chip");
    chipIdleW_ = arch::baselineIdlePower(wsCfg_);
    CacheKey key;
    arch::appendKey(key, wsCfg_);
    configKeyHash_ = key.hash();
}

BatchCost
BatchCostModel::cost(const nn::NetworkDesc &net, int batch) const
{
    inca_assert(batch > 0, "batch %d must be positive", batch);
    const ir::LowerOptions opts{/*overlap=*/true};
    ir::Program program =
        inca_ ? ir::lowerInca(incaCfg_, net, arch::Phase::Inference,
                              batch, opts)
              : ir::lowerWs(wsCfg_, net, arch::Phase::Inference,
                            batch, opts);
    const int activationBits =
        inca_ ? incaCfg_.activationBits : wsCfg_.activationBits;
    const int chips = shard_.chips;
    const LinkSpec &link = shard_.link;

    BatchCost out;
    if (shard_.kind == ShardKind::Tensor && chips > 1) {
        // Shrink the on-chip compute units by the split, in one pass
        // over the program; DRAM stays whole (weights and inputs are
        // broadcast to every chip).
        for (ir::Instr &in : program.instrs)
            if (in.unit == ir::Unit::Array || in.unit == ir::Unit::Adc ||
                in.unit == ir::Unit::Digital ||
                in.unit == ir::Unit::Buffer)
                in.duration *= 1.0 / double(chips);
        const event::TimedRun timed = event::execute(program);
        // Ring all-reduce of every conv-like layer's output: each
        // chip moves 2(S-1)/S of the tensor, in ceil(log2 S) latency
        // hops.
        const double moved = 2.0 * double(chips - 1) / double(chips);
        const double hops =
            std::ceil(std::log2(double(chips)));
        Seconds linkTime = 0.0;
        double linkBytes = 0.0;
        for (const auto &layer : net.layers) {
            if (!layer.isConvLike())
                continue;
            const double bytes =
                activationBytes(layer, batch, activationBits);
            linkBytes += bytes * moved;
            linkTime += bytes * moved / link.bandwidthBytesPerS +
                        link.latencyS * hops;
        }
        out.latencyS = timed.run.latency + linkTime;
        out.intervalS = out.latencyS;
        out.energyJ = timed.run.sum("energy") +
                      linkBytes * link.energyPerByteJ;
    } else if (shard_.kind == ShardKind::Pipeline && chips > 1) {
        // Stage the layers; a batch flows through every stage once,
        // and the slowest stage gates the next batch's admission.
        const arch::RunCost serial = ir::analyticWalk(program);
        inca_assert(!serial.layers.empty(),
                    "pipeline sharding needs at least one layer");
        const int stages =
            std::min<int>(chips, int(serial.layers.size()));
        const auto cuts = stageCuts(serial.layers, stages);
        const auto byName = layerIndex(net);
        Seconds latency = 0.0;
        Seconds slowest = 0.0;
        double linkBytes = 0.0;
        std::size_t first = 0;
        for (std::size_t s = 0; s < cuts.size(); ++s) {
            Seconds stageTime = 0.0;
            for (std::size_t i = first; i <= cuts[s]; ++i)
                stageTime += serial.layers[i].latency;
            Seconds cutTime = 0.0;
            if (s + 1 < cuts.size()) {
                const auto it =
                    byName.find(serial.layers[cuts[s]].name);
                const double bytes =
                    it == byName.end()
                        ? 0.0
                        : activationBytes(*it->second, batch,
                                          activationBits);
                linkBytes += bytes;
                cutTime = bytes / link.bandwidthBytesPerS +
                          link.latencyS;
            }
            latency += stageTime + cutTime;
            slowest = std::max(slowest, stageTime + cutTime);
            first = cuts[s] + 1;
        }
        out.latencyS = latency;
        out.intervalS = slowest;
        out.energyJ = serial.sum("energy") +
                      linkBytes * link.energyPerByteJ;
    } else {
        const event::TimedRun timed = event::execute(program);
        out.latencyS = timed.run.latency;
        out.intervalS = out.latencyS;
        out.energyJ = timed.run.sum("energy");
    }
    inca_assert(out.latencyS > 0.0 && out.intervalS > 0.0,
                "batch cost must be positive");
    return out;
}

} // namespace serving
} // namespace inca
