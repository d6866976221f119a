/**
 * @file
 * Off-chip HBM2 DRAM model.
 *
 * Energy follows the paper's own assumption: 32 pJ per 8-bit access
 * (Section V-A, taken from NeuroSim's HBM2 estimation). Latency uses a
 * queueing-delay model reproducing Figure 1b's observation (from [34],
 * [49]) that loaded latency increases sharply -- roughly exponentially
 * -- beyond ~80 % of the maximum sustained bandwidth: below the knee
 * the latency is near-constant; above it an M/M/1-like 1/(1-u) blowup
 * with an exponential sharpening term takes over.
 */

#ifndef INCA_MEMORY_DRAM_HH
#define INCA_MEMORY_DRAM_HH

#include "common/units.hh"

namespace inca {

class CacheKey;

namespace memory {

/** HBM2 stack model. */
struct Dram
{
    Bytes capacity = 8.0 * 1024.0 * 1024.0 * 1024.0; ///< 8 GB HBM2
    double peakBandwidth = 256e9;  ///< bytes/s, one HBM2 stack
    Joules energyPerByte = 32e-12; ///< paper: 32 pJ per 8-bit
    Seconds unloadedLatency = 100e-9; ///< idle access latency
    double kneeUtilization = 0.80;    ///< Fig. 1b knee position

    /** Energy to move @p bytes. */
    Joules accessEnergy(double bytes) const
    {
        return bytes * energyPerByte;
    }

    /**
     * Loaded access latency at sustained-bandwidth utilization
     * @p utilization in [0, 1).
     */
    Seconds loadedLatency(double utilization) const;

    /** Time to stream @p bytes at full bandwidth. */
    Seconds streamTime(double bytes) const
    {
        return bytes / peakBandwidth;
    }
};

/** Table II DRAM. */
Dram paperDram();

/** Append every field of @p d to @p key (config-key hash). */
void appendKey(CacheKey &key, const Dram &d);

} // namespace memory
} // namespace inca

#endif // INCA_MEMORY_DRAM_HH
