/**
 * @file
 * The simulator's named statistics, held flat.
 *
 * Engines charge energy under "energy.<component>" [J] and event
 * counts under "count.<component>". The 23 names below are every stat
 * the simulator writes; a Stat is the id of one of them. The ids run
 * in the names' lexicographic order, so a StatSet iterates, prints and
 * sums in the order a name-keyed map would, and the stats under one
 * dotted prefix ("energy", "energy.dram") form one contiguous id
 * range. A StatSet is the 23 values plus a presence mask: "absent"
 * and "0" stay distinct, and copying one allocates nothing. StatSets
 * compose with operator+= so per-layer stats roll up into per-network
 * stats.
 */

#ifndef INCA_COMMON_STATS_HH
#define INCA_COMMON_STATS_HH

#include <array>
#include <bit>
#include <cstdint>
#include <string_view>

namespace inca {

/** Every stat the simulator writes, in name order (see kStatNames). */
enum class Stat : std::uint8_t
{
    CountAdc,
    CountArrayRead,
    CountArrayWrite,
    CountBufferRead,
    CountBufferWrite,
    CountDramBytes,
    CountReliabilityExtraPulse,
    CountReliabilityVerifyRead,
    EnergyAdc,
    EnergyArrayRead,
    EnergyArrayWrite,
    EnergyBufferRead,
    EnergyBufferWrite,
    EnergyDac,
    EnergyDigitalAdders,
    EnergyDigitalPost,
    EnergyDigitalRegister,
    EnergyDigitalShift,
    EnergyDramActivation,
    EnergyDramRead,
    EnergyDramWeights,
    EnergyDramWrite,
    EnergyReliabilityWriteVerify,
};

inline constexpr int kStatCount =
    int(Stat::EnergyReliabilityWriteVerify) + 1;

/** The dotted name of each Stat, strictly increasing. */
inline constexpr std::array<std::string_view, kStatCount> kStatNames = {
    "count.adc",
    "count.array.read",
    "count.array.write",
    "count.buffer.read",
    "count.buffer.write",
    "count.dram.bytes",
    "count.reliability.extra_pulse",
    "count.reliability.verify_read",
    "energy.adc",
    "energy.array.read",
    "energy.array.write",
    "energy.buffer.read",
    "energy.buffer.write",
    "energy.dac",
    "energy.digital.adders",
    "energy.digital.post",
    "energy.digital.register",
    "energy.digital.shift",
    "energy.dram.activation",
    "energy.dram.read",
    "energy.dram.weights",
    "energy.dram.write",
    "energy.reliability.write_verify",
};

/** The dotted name of @p s ("energy.adc"). */
constexpr std::string_view
statName(Stat s)
{
    return kStatNames[std::size_t(s)];
}

/** The stat ids [first, last), ascending. */
struct StatRange
{
    int first = 0;
    int last = 0;
};

/**
 * The stats @p prefix names: those whose name equals it or continues
 * it after a '.' ("energy.dr" names none, "energy.array" the read and
 * the write stat). Resolve a prefix once and sum the range per layer.
 */
constexpr StatRange
statPrefix(std::string_view prefix)
{
    StatRange r;
    for (int i = 0; i < kStatCount; ++i) {
        const std::string_view name = kStatNames[std::size_t(i)];
        if (!name.starts_with(prefix) ||
            (name.size() != prefix.size() && name[prefix.size()] != '.'))
            continue;
        if (r.first == r.last)
            r.first = i;
        r.last = i + 1;
    }
    return r;
}

/** The 23 stat values of one instruction, layer or run. */
class StatSet
{
  public:
    /** Add @p delta to @p s (an absent stat starts at 0). */
    void
    add(Stat s, double delta)
    {
        values_[std::size_t(s)] += delta;
        present_ |= bit(int(s));
    }

    /** @return the value of @p s, or 0 when absent. */
    double get(Stat s) const { return values_[std::size_t(s)]; }

    /** Accumulate every stat of @p other into this set. */
    StatSet &operator+=(const StatSet &other);

    /** Sum of the present stats in @p r, in name order. */
    double sum(StatRange r) const;

    bool operator==(const StatSet &other) const = default;

    /** Call @p f(stat, value) for every present stat, in name order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::uint32_t rest = present_; rest != 0; rest &= rest - 1) {
            const int i = std::countr_zero(rest);
            f(Stat(i), values_[std::size_t(i)]);
        }
    }

  private:
    static constexpr std::uint32_t bit(int i) { return 1u << i; }

    std::array<double, kStatCount> values_{}; ///< 0 while absent
    std::uint32_t present_ = 0;               ///< bit i: stat i added
};

} // namespace inca

#endif // INCA_COMMON_STATS_HH
