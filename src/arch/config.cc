#include "arch/config.hh"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/cache.hh"
#include "common/config.hh"
#include "common/logging.hh"

namespace inca {
namespace arch {

IncaConfig
paperInca()
{
    return IncaConfig{};
}

BaselineConfig
paperBaseline()
{
    return BaselineConfig{};
}

namespace {

/** An integer field a config section may set, to a value in [1, max]. */
struct IntKey
{
    const char *name;
    int *field;
    int max = std::numeric_limits<int>::max();
};

/** The keys both chips read, bound to the fields of @p c. */
template <typename Chip>
std::vector<IntKey>
sharedKeys(Chip &c, int &bufferKib)
{
    return {{"num_tiles", &c.org.numTiles},
            {"tile_size", &c.org.tileSize},
            {"macro_size", &c.org.macroSize},
            {"buffer_kib", &bufferKib},
            {"bus_bits", &c.buffer.port.widthBits},
            {"subarray_size", &c.subarraySize},
            {"adc_bits", &c.adcBits, circuit::kMaxAdcBits},
            {"weight_bits", &c.weightBits},
            {"activation_bits", &c.activationBits},
            {"batch_size", &c.batchSize}};
}

/**
 * Set the fields @p keys name from the "[section]" entries of @p cfg.
 * Every entry of the section must be one of @p keys, with a value in
 * [1, max]; anything else is a fatal() that names the key, so a typo
 * or a zero never runs as a silently different chip.
 */
void
applyKeys(const Config &cfg, const std::string &section,
          const std::vector<IntKey> &keys)
{
    const std::string prefix = section + ".";
    for (const std::string &key : cfg.keys()) {
        if (key.compare(0, prefix.size(), prefix) != 0)
            continue;
        const auto k = std::find_if(
            keys.begin(), keys.end(), [&](const IntKey &known) {
                return key.compare(prefix.size(), std::string::npos,
                                   known.name) == 0;
            });
        if (k == keys.end()) {
            fatal("config key '%s': unknown [%s] setting",
                  key.c_str(), section.c_str());
        }
        const std::int64_t v = cfg.getInt(key, 0);
        if (v < 1 || v > k->max) {
            fatal("config key '%s' must be in [1, %d], got '%s'",
                  key.c_str(), k->max, cfg.getString(key).c_str());
        }
        *k->field = int(v);
    }
}

} // namespace

IncaConfig
incaFromConfig(const Config &cfg)
{
    IncaConfig c = paperInca();
    int bufferKib = int(c.buffer.capacity / 1024.0);
    std::vector<IntKey> keys = sharedKeys(c, bufferKib);
    keys.push_back({"stacked_planes", &c.stackedPlanes});
    keys.push_back({"subarrays_per_adc", &c.subarraysPerAdc});
    applyKeys(cfg, "inca", keys);
    c.buffer.capacity = double(bufferKib) * 1024.0;
    return c;
}

BaselineConfig
baselineFromConfig(const Config &cfg)
{
    BaselineConfig c = paperBaseline();
    int bufferKib = int(c.buffer.capacity / 1024.0);
    applyKeys(cfg, "baseline", sharedKeys(c, bufferKib));
    c.buffer.capacity = double(bufferKib) * 1024.0;
    return c;
}

void
appendKey(CacheKey &key, const ChipOrganization &org)
{
    key.add("org").add(org.numTiles).add(org.tileSize).add(
        org.macroSize);
}

void
appendKey(CacheKey &key, const IncaConfig &c)
{
    key.add("inca-cfg");
    appendKey(key, c.org);
    key.add(c.subarraySize)
        .add(c.stackedPlanes)
        .add(c.cellBits)
        .add(c.adcBits)
        .add(c.subarraysPerAdc)
        .add(c.weightBits)
        .add(c.activationBits)
        .add(c.batchSize);
    memory::appendKey(key, c.buffer);
    memory::appendKey(key, c.dram);
    circuit::appendKey(key, c.device);
    circuit::appendKey(key, c.cell);
    circuit::appendKey(key, c.digital);
}

void
appendKey(CacheKey &key, const BaselineConfig &c)
{
    key.add("ws-cfg");
    appendKey(key, c.org);
    key.add(c.subarraySize)
        .add(c.cellBits)
        .add(c.adcBits)
        .add(c.weightBits)
        .add(c.activationBits)
        .add(c.batchSize);
    memory::appendKey(key, c.buffer);
    memory::appendKey(key, c.dram);
    circuit::appendKey(key, c.device);
    circuit::appendKey(key, c.cell);
    circuit::appendKey(key, c.digital);
}

} // namespace arch
} // namespace inca
