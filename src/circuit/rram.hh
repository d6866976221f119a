/**
 * @file
 * RRAM device model.
 *
 * Parameters follow the paper's circuit-simulation setup (Table II):
 * R_on 240 kOhm, R_off 24 MOhm, 0.5 V / 10 ns reads, 1.1 V / 50 ns
 * writes, 1.03 uW on-cell and 10.42 nW off-cell read power. Energies
 * are derived as power x pulse width (reads) and V^2/R x pulse width
 * (writes), which is how NeuroSim-style frameworks account for cell
 * events.
 */

#ifndef INCA_CIRCUIT_RRAM_HH
#define INCA_CIRCUIT_RRAM_HH

#include "common/units.hh"

namespace inca {

class CacheKey;

namespace circuit {

/** A binary (1-bit per cell, as configured in Table II) RRAM device. */
struct RramDevice
{
    Ohms rOn = 240e3;       ///< low-resistance (on) state
    Ohms rOff = 24e6;       ///< high-resistance (off) state
    Volts vRead = 0.5;      ///< read voltage
    Volts vWrite = 1.1;     ///< write (program) voltage
    Seconds tRead = 10e-9;  ///< read pulse width
    Seconds tWrite = 50e-9; ///< write pulse width
    Watts pOnCell = 1.03e-6;   ///< on-cell power during a read
    Watts pOffCell = 10.42e-9; ///< off-cell power during a read

    /** Energy of reading one on-state cell. */
    Joules readEnergyOn() const { return pOnCell * tRead; }

    /** Energy of reading one off-state cell. */
    Joules readEnergyOff() const { return pOffCell * tRead; }

    /**
     * Expected read energy per cell given the probability @p onFraction
     * that a cell is in the on state (binary data: ~0.5).
     */
    Joules avgReadEnergy(double onFraction = 0.5) const;

    /** Energy of programming one cell into the on state. */
    Joules writeEnergyOn() const
    {
        return vWrite * vWrite / rOn * tWrite;
    }

    /** Energy of programming one cell into the off state. */
    Joules writeEnergyOff() const
    {
        return vWrite * vWrite / rOff * tWrite;
    }

    /** Expected write energy per cell for binary data. */
    Joules avgWriteEnergy(double onFraction = 0.5) const;

    /** On/off resistance ratio (sanity metric). */
    double onOffRatio() const { return rOff / rOn; }
};

/** The paper's Table II device. */
RramDevice paperDevice();

/** Append every field of @p d to @p key (config-key hash). */
void appendKey(CacheKey &key, const RramDevice &d);

} // namespace circuit
} // namespace inca

#endif // INCA_CIRCUIT_RRAM_HH
