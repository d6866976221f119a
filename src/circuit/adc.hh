/**
 * @file
 * SAR ADC and 1-bit DAC models.
 *
 * The paper's ADC accounting (Section V-B-1, citing FORMS [67]):
 * "one 8-bit ADC consumes energy as much as four 4-bit ADCs, not two",
 * and "four 4-bit ADC at 2.1 GHz can replace one 8-bit at 1.2 GHz".
 * We therefore model conversion energy as E(b) = E4 * 2^((b - 4) / 2),
 * which quadruples per +4 bits (E8 == 4 * E4) as the paper states.
 * Area is anchored to the paper's Table V totals (see arch/area).
 */

#ifndef INCA_CIRCUIT_ADC_HH
#define INCA_CIRCUIT_ADC_HH

#include "common/units.hh"

namespace inca {
namespace circuit {

/** A successive-approximation ADC of a given resolution. */
struct AdcModel
{
    int bits = 8;                ///< resolution
    double frequencyHz = 1.2e9;  ///< sample clock
    Joules energyPerConversion = 0.0;
    SquareMeters area = 0.0;

    /** Time for one conversion (one bit decision per clock). */
    Seconds conversionLatency() const
    {
        return double(bits) / frequencyHz;
    }
};

/** Highest resolution makeAdc models. */
constexpr int kMaxAdcBits = 12;

/**
 * Build an ADC of @p bits in [1, kMaxAdcBits] using the paper's
 * scaling anchors: 4-bit at 2.1 GHz and 8-bit at 1.2 GHz, with
 * E8 == 4 * E4.
 */
AdcModel makeAdc(int bits);

/** Reference conversion energy of the 4-bit anchor. */
Joules adc4AnchorEnergy();

/** A 1-bit DAC / wordline driver. */
struct DacModel
{
    Joules energyPerActivation = 25e-15; ///< per driven line per cycle
    SquareMeters area = 0.166e-12;       ///< from Table V per-DAC area
};

/** The 1-bit DAC both architectures use (Table II / Table V). */
DacModel makeDac();

} // namespace circuit
} // namespace inca

#endif // INCA_CIRCUIT_ADC_HH
