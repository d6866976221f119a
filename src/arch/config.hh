/**
 * @file
 * Accelerator configurations (paper Table II).
 *
 * Two chips are modelled:
 *  - INCA: 3D HRRAM stacks of 16 x 16 vertical planes, 64 planes per
 *    stack (one batch image per plane), 2T1R cells, 4-bit ADCs,
 *    bit-serial weight feed;
 *  - the WS baseline: 2D 128 x 128 1T1R crossbars with 8-bit ADCs,
 *    ISAAC-style [42] pipelined inference and PipeLayer-style [48]
 *    training.
 * Both share the tile organisation (168 tiles x 12 macros x 8
 * subarrays), 64 KB 256-bit buffers, and 8 GB HBM2 so that comparisons
 * are iso-capacity, exactly as the paper configures them.
 */

#ifndef INCA_ARCH_CONFIG_HH
#define INCA_ARCH_CONFIG_HH

#include <cstdint>

#include "circuit/adc.hh"
#include "common/config.hh"
#include "circuit/cells.hh"
#include "circuit/digital.hh"
#include "circuit/rram.hh"
#include "memory/dram.hh"
#include "memory/sram.hh"

namespace inca {

class CacheKey;

namespace arch {

/** Organisation both chips share. */
struct ChipOrganization
{
    int numTiles = 168;  ///< tiles per chip
    int tileSize = 12;   ///< macros per tile
    int macroSize = 8;   ///< subarrays per macro

    std::int64_t totalMacros() const
    {
        return std::int64_t(numTiles) * tileSize;
    }

    std::int64_t totalSubarrays() const
    {
        return totalMacros() * macroSize;
    }
};

/** INCA configuration (Table II, top block). */
struct IncaConfig
{
    ChipOrganization org;
    int subarraySize = 16;     ///< 16 x 16 pillars per vertical plane
    int stackedPlanes = 64;    ///< planes per 3D stack (= batch slots)
    int cellBits = 1;
    int adcBits = 4;
    int subarraysPerAdc = 16;  ///< ADC sharing inside a stack
    int weightBits = 8;
    int activationBits = 8;
    int batchSize = 64;

    memory::SramBuffer buffer; ///< per tile
    memory::Dram dram;
    circuit::RramDevice device;
    circuit::Cell2T1R cell;
    circuit::DigitalModel digital;

    /** RRAM cells in one 3D stack. */
    std::int64_t cellsPerStack() const
    {
        return std::int64_t(subarraySize) * subarraySize * stackedPlanes;
    }

    /** Total RRAM cells on the chip. */
    std::int64_t totalCells() const
    {
        return org.totalSubarrays() * cellsPerStack();
    }

    /** The configured ADC. */
    circuit::AdcModel adc() const { return circuit::makeAdc(adcBits); }

    /**
     * Array read cycle (a windowed direct-convolution read pulse).
     * The engine's effective per-read cycle additionally accounts for
     * the write-behind-read pipeline and the shared-ADC drain; see
     * core::IncaEngine::readCycleTime().
     */
    Seconds readCycle() const { return device.tRead; }
};

/** WS baseline configuration (Table II, middle block). */
struct BaselineConfig
{
    ChipOrganization org;
    int subarraySize = 128; ///< 128 x 128 crossbar
    int cellBits = 1;
    int adcBits = 8;
    int weightBits = 8;
    int activationBits = 8;
    int batchSize = 64;

    memory::SramBuffer buffer;
    memory::Dram dram;
    circuit::RramDevice device;
    circuit::Cell1T1R cell;
    circuit::DigitalModel digital;

    /** RRAM cells in one crossbar. */
    std::int64_t cellsPerSubarray() const
    {
        return std::int64_t(subarraySize) * subarraySize;
    }

    /** Total RRAM cells on the chip. */
    std::int64_t totalCells() const
    {
        return org.totalSubarrays() * cellsPerSubarray();
    }

    circuit::AdcModel adc() const { return circuit::makeAdc(adcBits); }

    /**
     * Array read cycle. The paper observes (Section V-B-2) that the
     * baseline's read takes about 2x INCA's *write* latency because of
     * the 128-wide arrays and the time-multiplexed high-resolution
     * ADCs: 2 x 50 ns = 100 ns.
     */
    Seconds readCycle() const { return 2.0 * device.tWrite; }
};

/** Table II INCA chip. */
IncaConfig paperInca();

/** Table II baseline chip. */
BaselineConfig paperBaseline();

/**
 * Table II INCA chip with overrides from an "[inca]" config section:
 * subarray_size, stacked_planes, adc_bits, subarrays_per_adc,
 * weight_bits, activation_bits, batch_size, num_tiles, tile_size,
 * macro_size, buffer_kib, bus_bits. Each must be a whole number >= 1
 * that fits an int (adc_bits at most circuit::kMaxAdcBits); a bad
 * value or any other key under [inca] is a fatal() naming the key.
 */
IncaConfig incaFromConfig(const class Config &cfg);

/**
 * Table II baseline chip with "[baseline]" section overrides: the
 * same keys and rules as incaFromConfig, less stacked_planes and
 * subarrays_per_adc.
 */
BaselineConfig baselineFromConfig(const class Config &cfg);

/** Append every field of @p org to @p key (config-key hash). */
void appendKey(CacheKey &key, const ChipOrganization &org);

/**
 * Append every field of @p c to @p key. The key's hash is the
 * configKeyHash that ties exported runs, frontier rows and journal
 * signatures back to the exact design point.
 */
void appendKey(CacheKey &key, const IncaConfig &c);

/** Append every field of @p c to @p key (see the IncaConfig one). */
void appendKey(CacheKey &key, const BaselineConfig &c);

} // namespace arch
} // namespace inca

#endif // INCA_ARCH_CONFIG_HH
