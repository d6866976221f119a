/**
 * @file
 * On-chip SRAM buffer model.
 *
 * Both architectures use 64 KB buffers with a 256-bit port (Table II).
 * Access energy is charged per bit moved; the per-bit constants are in
 * the range NeuroSim reports for ~64 KB 22 nm SRAM macros. The buffer
 * area constant reproduces Table V's 13.944 mm^2 for 168 buffers.
 */

#ifndef INCA_MEMORY_SRAM_HH
#define INCA_MEMORY_SRAM_HH

#include <cstdint>

#include "common/units.hh"
#include "memory/bus.hh"

namespace inca {

class CacheKey;

namespace memory {

/** A single-ported on-chip SRAM buffer. */
struct SramBuffer
{
    Bytes capacity = 64.0 * 1024.0; ///< Table II "Buffer Size"
    Bus port;                       ///< 256-bit access port
    // Per-bit energies include the H-tree transport between the tile
    // buffer and the macros (NeuroSim charges interconnect with the
    // access; wire energy dominates the bitcell read itself).
    Joules readEnergyPerBit = 1.0e-12;
    Joules writeEnergyPerBit = 1.2e-12;
    Seconds accessLatency = 1.5e-9; ///< one ported access

    /** Energy to read @p words bus words. */
    Joules
    readEnergy(double words) const
    {
        return words * double(port.widthBits) * readEnergyPerBit;
    }

    /** Energy to write @p words bus words. */
    Joules
    writeEnergy(double words) const
    {
        return words * double(port.widthBits) * writeEnergyPerBit;
    }

    /** Energy to read one full bus word. */
    Joules readWordEnergy() const { return readEnergy(1.0); }

    /** Energy to write one full bus word. */
    Joules writeWordEnergy() const { return writeEnergy(1.0); }

    /** Area of one buffer instance (Table V anchor). */
    SquareMeters area() const
    {
        // 13.944 mm^2 for 168 instances of 64 KB.
        return 13.944e-6 / 168.0 * (capacity / (64.0 * 1024.0));
    }
};

/** Table II buffer. */
SramBuffer paperBuffer();

/** Append every field of @p b to @p key (config-key hash). */
void appendKey(CacheKey &key, const SramBuffer &b);

} // namespace memory
} // namespace inca

#endif // INCA_MEMORY_SRAM_HH
