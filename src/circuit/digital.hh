/**
 * @file
 * Digital post-processing component models.
 *
 * Small fixed-function units both architectures share (Table II notes
 * "the simulation of INCA and the baseline employed the same peripheral
 * components"): adders / adder trees, shift-accumulators, registers,
 * AND gates (INCA's ReLU-gradient trick in backprop), the max-pool LUT,
 * and ReLU / max-pool post-processing units. Energies are per-operation
 * constants at 22 nm in the range NeuroSim reports; they are shared by
 * both architectures so they cancel to first order in the comparisons.
 */

#ifndef INCA_CIRCUIT_DIGITAL_HH
#define INCA_CIRCUIT_DIGITAL_HH

#include "common/units.hh"

namespace inca {

class CacheKey;

namespace circuit {

/** Per-operation energy/latency constants for digital helpers. */
struct DigitalModel
{
    Joules adder8bit = 30e-15;       ///< one 8-bit add
    Joules adder16bit = 55e-15;      ///< one 16-bit add (adder tree)
    Joules shiftAccumulate = 60e-15; ///< one shift + accumulate step
    Joules registerAccess = 15e-15;  ///< one 8-bit register read/write
    Joules andGate = 2e-15;          ///< one AND (ReLU gradient)
    Joules lutLookup = 40e-15;       ///< max-pool position LUT lookup
    Joules reluOp = 10e-15;          ///< one ReLU evaluation
    Joules maxPoolCompare = 25e-15;  ///< one pooling comparison

    Seconds adderDelay = 0.2e-9;     ///< adder-tree stage delay
};

/** Shared 22 nm digital constants. */
DigitalModel makeDigital();

/**
 * Energy of an adder-tree reduction over @p leaves operands of the
 * given per-add energy ((leaves - 1) adds).
 */
Joules adderTreeEnergy(const DigitalModel &m, double leaves,
                       bool wide = true);

/** Append every field of @p m to @p key (config-key hash). */
void appendKey(CacheKey &key, const DigitalModel &m);

} // namespace circuit
} // namespace inca

#endif // INCA_CIRCUIT_DIGITAL_HH
