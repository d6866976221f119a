/**
 * @file
 * On-chip bus width arithmetic.
 *
 * The paper's access-count analysis (Eqs. 5 and 6) counts buffer
 * accesses in bus-width words: moving V values of P bits each over a
 * W-bit bus takes ceil(V * P / W) accesses. Both architectures use a
 * 256-bit buffer port (Table II).
 */

#ifndef INCA_MEMORY_BUS_HH
#define INCA_MEMORY_BUS_HH

#include <cstdint>

#include "common/units.hh"

namespace inca {

class CacheKey;

namespace memory {

/** A fixed-width data bus. */
struct Bus
{
    int widthBits = 256; ///< Table II "Buffer Bitwidth"

    /** Bus words needed to move @p values of @p bits each. */
    std::uint64_t
    words(std::uint64_t values, int bits) const
    {
        return ceilDiv(values * std::uint64_t(bits),
                       std::uint64_t(widthBits));
    }
};

/** Append every field of @p b to @p key (config-key hash). */
void appendKey(CacheKey &key, const Bus &b);

} // namespace memory
} // namespace inca

#endif // INCA_MEMORY_BUS_HH
