/**
 * @file
 * Technology-node scaling rules.
 *
 * The paper lays the 2T1R cell out in TSMC 65 nm and scales the circuit
 * results to the accelerator's 22 nm node with a linear scale factor of
 * 0.34 (Table II). Classic constant-field scaling by factor s gives
 * area x s^2, dynamic energy x s (CV^2 with V partially scaled), and
 * delay x s.
 */

#ifndef INCA_CIRCUIT_TECH_HH
#define INCA_CIRCUIT_TECH_HH

#include "common/units.hh"

namespace inca {

class CacheKey;

namespace circuit {

/** Linear scaling between a layout node and a target node. */
struct TechScaling
{
    double layoutNodeNm = 65.0;  ///< node the circuit was laid out in
    double targetNodeNm = 22.0;  ///< node the accelerator is built in
    double linearFactor = 0.34;  ///< paper's Table II "scale factor"

    /** Area scales with the square of the linear factor. */
    double areaFactor() const { return linearFactor * linearFactor; }

    /** Dynamic energy scales roughly linearly. */
    double energyFactor() const { return linearFactor; }

    /** Gate delay scales roughly linearly. */
    double delayFactor() const { return linearFactor; }

    /** Scale a layout-node area to the target node. */
    SquareMeters scaleArea(SquareMeters a) const
    {
        return a * areaFactor();
    }

    /** Scale a layout-node energy to the target node. */
    Joules scaleEnergy(Joules e) const { return e * energyFactor(); }

    /** Scale a layout-node delay to the target node. */
    Seconds scaleDelay(Seconds t) const { return t * delayFactor(); }
};

/** The paper's 65 nm -> 22 nm configuration. */
TechScaling paperScaling();

/** Append every field of @p t to @p key (config-key hash). */
void appendKey(CacheKey &key, const TechScaling &t);

} // namespace circuit
} // namespace inca

#endif // INCA_CIRCUIT_TECH_HH
