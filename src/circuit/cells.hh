/**
 * @file
 * Cell geometry models: baseline 1T1R and INCA's 2T1R.
 *
 * The paper lays both cells out at 65 nm (Table II: 1T1R 540 x 485 nm,
 * 2T1R 600 x 700 nm) and scales them with the 0.34 factor; after
 * scaling, a baseline cell occupies 0.030 um^2. INCA stacks 16 cells
 * vertically over one footprint, so 16 INCA cells project to only
 * 0.048 um^2 (Section V-B-6).
 */

#ifndef INCA_CIRCUIT_CELLS_HH
#define INCA_CIRCUIT_CELLS_HH

#include "circuit/tech.hh"
#include "common/units.hh"

namespace inca {

class CacheKey;

namespace circuit {

/** The standard 1T1R crossbar cell of the WS baseline. */
struct Cell1T1R
{
    Meters width = 540e-9;  ///< layout width at the layout node
    Meters length = 485e-9; ///< layout length at the layout node
    TechScaling scaling = paperScaling();

    /** Layout-node footprint. */
    SquareMeters rawArea() const { return width * length; }

    /** Footprint at the accelerator node. */
    SquareMeters scaledArea() const
    {
        return scaling.scaleArea(rawArea());
    }
};

/** INCA's 2T1R cell with vertical 3D stacking. */
struct Cell2T1R
{
    Meters width = 600e-9;  ///< layout width at the layout node
    Meters length = 700e-9; ///< layout length at the layout node
    int verticalStack = 16; ///< cells stacked over one footprint
    TechScaling scaling = paperScaling();

    /** Layout-node footprint of one stacked column. */
    SquareMeters rawArea() const { return width * length; }

    /** Footprint at the accelerator node (whole 16-cell column). */
    SquareMeters scaledArea() const
    {
        return scaling.scaleArea(rawArea());
    }

    /** Projected area charged to ONE cell (footprint / stack height). */
    SquareMeters areaPerCell() const
    {
        return scaledArea() / double(verticalStack);
    }
};

/** Append every field of @p c to @p key (config-key hash). */
void appendKey(CacheKey &key, const Cell1T1R &c);

/** Append every field of @p c to @p key (config-key hash). */
void appendKey(CacheKey &key, const Cell2T1R &c);

} // namespace circuit
} // namespace inca

#endif // INCA_CIRCUIT_CELLS_HH
