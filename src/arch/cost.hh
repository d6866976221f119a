/**
 * @file
 * Cost accounting shared by the INCA and baseline engines.
 *
 * An engine walks a network layer by layer and fills a LayerCost per
 * layer: energy components under "energy.<component>", event counts
 * under "count.<component>", and a latency. RunCost rolls layers up
 * and derives the figures the paper reports (energy per batch, energy
 * efficiency, makespan).
 */

#ifndef INCA_ARCH_COST_HH
#define INCA_ARCH_COST_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hh"
#include "common/units.hh"
#include "nn/layer.hh"

namespace inca {
namespace arch {

/** Simulated execution phase. */
enum class Phase
{
    Inference,
    Training,
};

/** Per-layer simulation result. */
struct LayerCost
{
    std::string name;
    nn::LayerKind kind = nn::LayerKind::Conv;
    StatSet stats;          ///< energy.* [J] and count.* entries
    Seconds latency = 0.0;  ///< layer busy time

    /** Total dynamic energy of the layer. */
    Joules
    energy() const
    {
        constexpr StatRange kEnergy = statPrefix("energy");
        return stats.sum(kEnergy);
    }

    /** Memory-system (DRAM + buffer) energy of the layer. */
    Joules
    memoryEnergy() const
    {
        constexpr StatRange kDram = statPrefix("energy.dram");
        constexpr StatRange kBuffer = statPrefix("energy.buffer");
        return stats.sum(kDram) + stats.sum(kBuffer);
    }
};

/** Whole-run simulation result (one network, one phase, one batch). */
struct RunCost
{
    std::string network;
    Phase phase = Phase::Inference;
    int batchSize = 1;
    std::vector<LayerCost> layers;
    Seconds latency = 0.0;     ///< batch makespan
    Joules staticEnergy = 0.0; ///< leakage/idle over the makespan
    /**
     * FNV-1a hash of the producing engine's canonical config key
     * (arch::appendKey); ties an exported run back to the exact
     * design point in sim::toJson's provenance manifest.
     */
    std::uint64_t configKeyHash = 0;

    /** Sum of the stats under a dotted prefix across layers. */
    double sum(std::string_view prefix) const
    {
        return sum(statPrefix(prefix));
    }

    /** Sum of the stats in @p r across layers. */
    double
    sum(StatRange r) const
    {
        double total = 0.0;
        for (const auto &l : layers)
            total += l.stats.sum(r);
        return total;
    }

    /** Total (dynamic + static) energy of the batch. */
    Joules
    energy() const
    {
        constexpr StatRange kEnergy = statPrefix("energy");
        return sum(kEnergy) + staticEnergy;
    }

    /** Energy per image. */
    Joules
    energyPerImage() const
    {
        return energy() / double(batchSize);
    }

    /** Latency per image (batch makespan / batch). */
    Seconds
    latencyPerImage() const
    {
        return latency / double(batchSize);
    }

    /** Images per joule -- the paper's energy-efficiency metric. */
    double
    energyEfficiency() const
    {
        return energy() == 0.0 ? 0.0 : double(batchSize) / energy();
    }

    /** Images per second. */
    double
    throughput() const
    {
        return latency == 0.0 ? 0.0 : double(batchSize) / latency;
    }
};

} // namespace arch
} // namespace inca

#endif // INCA_ARCH_COST_HH
