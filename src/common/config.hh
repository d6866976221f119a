/**
 * @file
 * Minimal INI-style configuration parsing.
 *
 * Drivers accept chip overrides (array sizes, ADC resolution, batch
 * size; see arch::incaFromConfig) from simple text files or inline
 * strings:
 *
 *     # comment
 *     batch = 32
 *     [inca]
 *     subarray_size = 32
 *     adc_bits = 5
 *
 * Sections flatten into dotted keys ("inca.subarray_size"). Values
 * are stored as strings and read as strings or integers.
 */

#ifndef INCA_COMMON_CONFIG_HH
#define INCA_COMMON_CONFIG_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace inca {

/** A flat string->string configuration with typed accessors. */
class Config
{
  public:
    /** Parse from INI-style text; fatal() on malformed lines. */
    static Config fromString(const std::string &text);

    /** Parse from a file; fatal() when unreadable. */
    static Config fromFile(const std::string &path);

    /** True when @p key is present. */
    bool has(const std::string &key) const;

    /** String value or @p fallback. */
    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;

    /**
     * Integer value (decimal, or hex behind 0x) or @p fallback;
     * fatal() on a bad number or one outside int64.
     */
    std::int64_t getInt(const std::string &key,
                        std::int64_t fallback) const;

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);

    /** All keys in order. */
    std::vector<std::string> keys() const;

    /** Number of entries. */
    size_t size() const { return values_.size(); }

  private:
    std::map<std::string, std::string> values_;
};

} // namespace inca

#endif // INCA_COMMON_CONFIG_HH
