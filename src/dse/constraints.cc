#include "dse/constraints.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace inca {
namespace dse {

namespace {

std::string
num(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

} // namespace

void
Constraints::set(const std::string &keyValue)
{
    const std::size_t eq = keyValue.find('=');
    if (eq == std::string::npos)
        fatal("constraint '%s' is not key=value", keyValue.c_str());
    const std::string key = keyValue.substr(0, eq);
    const std::string text = keyValue.substr(eq + 1);
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        fatal("constraint '%s': unparsable value '%s'", key.c_str(),
              text.c_str());
    // Every bound reads <= 0 as "unset" and NaN fails every
    // comparison, so either would silently switch the bound off.
    if (!std::isfinite(v) || v < 0.0)
        fatal("constraint '%s': value '%s' must be a finite number "
              ">= 0",
              key.c_str(), text.c_str());
    if (key == "max_area_mm2")
        maxAreaMm2 = v;
    else if (key == "max_idle_w")
        maxIdlePowerW = v;
    else if (key == "min_utilization")
        minUtilization = v;
    else if (key == "min_accuracy")
        minAccuracy = v;
    else if (key == "min_accuracy_at_ber")
        minAccuracyAtBer = v;
    else if (key == "lossless_adc")
        losslessAdc = v != 0.0;
    else if (key == "max_p99_ms")
        maxP99Ms = v;
    else if (key == "min_availability") {
        if (v < 0.0 || v > 1.0)
            fatal("constraint 'min_availability': %s outside [0, 1]",
                  text.c_str());
        minAvailability = v;
    } else
        fatal("unknown constraint '%s'", key.c_str());
}

std::string
Constraints::str() const
{
    std::string out;
    const auto add = [&](const std::string &kv) {
        if (!out.empty())
            out += ',';
        out += kv;
    };
    if (maxAreaMm2 > 0.0)
        add("max_area_mm2=" + num(maxAreaMm2));
    if (maxIdlePowerW > 0.0)
        add("max_idle_w=" + num(maxIdlePowerW));
    if (minUtilization > 0.0)
        add("min_utilization=" + num(minUtilization));
    if (minAccuracy > 0.0)
        add("min_accuracy=" + num(minAccuracy));
    if (minAccuracyAtBer > 0.0)
        add("min_accuracy_at_ber=" + num(minAccuracyAtBer));
    if (losslessAdc)
        add("lossless_adc=1");
    if (maxP99Ms > 0.0)
        add("max_p99_ms=" + num(maxP99Ms));
    if (minAvailability > 0.0)
        add("min_availability=" + num(minAvailability));
    return out;
}

ConstraintCheck
checkConstraints(const Constraints &c, const Evaluation &e,
                 EngineKind kind, int adcBits, int maxWindow)
{
    ConstraintCheck check;
    const auto reject = [&](const std::string &reason) {
        check.ok = false;
        check.reason = reason;
    };
    const double areaMm2 = e.areaM2 * 1e6;
    if (c.maxAreaMm2 > 0.0 && areaMm2 > c.maxAreaMm2) {
        reject("max_area_mm2 (" + num(areaMm2) + " > " +
               num(c.maxAreaMm2) + ")");
    } else if (c.maxIdlePowerW > 0.0 &&
               e.idlePowerW > c.maxIdlePowerW) {
        reject("max_idle_w (" + num(e.idlePowerW) + " > " +
               num(c.maxIdlePowerW) + ")");
    } else if (c.minUtilization > 0.0 &&
               e.utilization < c.minUtilization) {
        reject("min_utilization (" + num(e.utilization) + " < " +
               num(c.minUtilization) + ")");
    } else if (c.minAccuracy > 0.0 && e.accuracy < c.minAccuracy) {
        reject("min_accuracy (" + num(e.accuracy) + " < " +
               num(c.minAccuracy) + ")");
    } else if (c.minAccuracyAtBer > 0.0 &&
               e.resilience < c.minAccuracyAtBer) {
        reject("min_accuracy_at_ber (" + num(e.resilience) + " < " +
               num(c.minAccuracyAtBer) + ")");
    } else if (c.losslessAdc && kind == EngineKind::Inca) {
        const int levels = (1 << adcBits) - 1;
        if (levels < maxWindow)
            reject("lossless_adc (a " + std::to_string(adcBits) +
                   "-bit ADC clips a window of " +
                   std::to_string(maxWindow) + ": " +
                   std::to_string(maxWindow) + " > " +
                   std::to_string(levels) + ")");
    }
    return check;
}

} // namespace dse
} // namespace inca
