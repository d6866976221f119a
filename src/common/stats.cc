#include "common/stats.hh"

namespace inca {

namespace {

/** Ids in name order: iteration and prefix sums depend on it. */
constexpr bool
namesIncrease()
{
    for (int i = 1; i < kStatCount; ++i)
        if (!(kStatNames[std::size_t(i - 1)] < kStatNames[std::size_t(i)]))
            return false;
    return true;
}

/** Every prefix a name can be queried by covers exactly its range. */
constexpr bool
prefixesAreRanges()
{
    for (const std::string_view name : kStatNames) {
        for (std::size_t cut = 0; cut <= name.size(); ++cut) {
            if (cut < name.size() && name[cut] != '.')
                continue;
            const std::string_view prefix = name.substr(0, cut);
            const StatRange r = statPrefix(prefix);
            for (int i = r.first; i < r.last; ++i) {
                const std::string_view n = kStatNames[std::size_t(i)];
                if (!n.starts_with(prefix) ||
                    (n.size() != cut && n[cut] != '.'))
                    return false;
            }
        }
    }
    return true;
}

static_assert(namesIncrease(), "kStatNames must be in name order");
static_assert(prefixesAreRanges(), "a stat prefix spans a foreign name");
static_assert(kStatCount <= 32, "the presence mask holds 32 stats");

} // namespace

StatSet &
StatSet::operator+=(const StatSet &other)
{
    other.forEach(
        [&](Stat s, double value) { values_[std::size_t(s)] += value; });
    present_ |= other.present_;
    return *this;
}

double
StatSet::sum(StatRange r) const
{
    double total = 0.0;
    for (int i = r.first; i < r.last; ++i)
        if (present_ & bit(i))
            total += values_[std::size_t(i)];
    return total;
}

} // namespace inca
