#include "serving/failures.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/logging.hh"

namespace inca {
namespace serving {

namespace {

/** Split @p text on ':' into whole tokens (empty tokens kept). */
std::vector<std::string>
splitColons(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t colon = text.find(':', pos);
        if (colon == std::string::npos)
            colon = text.size();
        out.push_back(text.substr(pos, colon - pos));
        pos = colon + 1;
    }
    return out;
}

/** Whole-token duration ("500ms", "2s", "750us") in seconds, or die. */
Seconds
parseDurationToken(const char *flag, const std::string &token)
{
    if (token.empty())
        fatal("%s: empty duration (expected e.g. '200ms')", flag);
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || errno == ERANGE)
        fatal("%s: '%s' is not a duration", flag, token.c_str());
    if (!std::isfinite(v))
        fatal("%s: '%s' is not a finite duration", flag,
              token.c_str());
    if (v < 0.0)
        fatal("%s: duration must be non-negative, got '%s'", flag,
              token.c_str());
    const std::string unit = end;
    if (unit.empty()) {
        if (v == 0.0)
            return 0.0;
        fatal("%s: '%s' needs a unit suffix (ns, us, ms, s)", flag,
              token.c_str());
    }
    if (unit == "ns")
        return v * 1e-9;
    if (unit == "us")
        return v * 1e-6;
    if (unit == "ms")
        return v * 1e-3;
    if (unit == "s")
        return v;
    fatal("%s: unknown duration unit '%s' in '%s'", flag,
          unit.c_str(), token.c_str());
}

/** Whole-token double, or die. */
double
parseDoubleToken(const char *flag, const std::string &token)
{
    if (token.empty())
        fatal("%s: empty number", flag);
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0' || errno == ERANGE)
        fatal("%s: '%s' is not a number", flag, token.c_str());
    if (!std::isfinite(v))
        fatal("%s: '%s' is not a finite number", flag, token.c_str());
    return v;
}

/** Whole-token non-negative integer, or die. */
long long
parseIntToken(const char *flag, const std::string &token)
{
    if (token.empty())
        fatal("%s: empty count", flag);
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0' || errno == ERANGE)
        fatal("%s: '%s' is not an integer", flag, token.c_str());
    return v;
}

} // namespace

const char *
healthName(Health h)
{
    switch (h) {
      case Health::Up:
        return "up";
      case Health::Degraded:
        return "degraded";
      case Health::Down:
        return "down";
      case Health::Recovering:
        return "recovering";
    }
    panic("unreachable health state %d", int(h));
}

const char *
requestOutcomeName(RequestOutcome o)
{
    switch (o) {
      case RequestOutcome::Ok:
        return "ok";
      case RequestOutcome::Shed:
        return "shed";
      case RequestOutcome::Timeout:
        return "timeout";
      case RequestOutcome::Failed:
        return "failed";
    }
    panic("unreachable request outcome %d", int(o));
}

FailureSpec
parseFailureSpec(const char *flag, const char *text)
{
    FailureSpec spec;
    if (!text || *text == '\0')
        fatal("%s needs 'none' or mtbf:mttr (e.g. 200ms:50ms), got "
              "an empty value",
              flag);
    const std::string s = text;
    if (s == "none")
        return spec; // disabled
    const std::vector<std::string> parts = splitColons(s);
    if (parts.size() < 2 || parts.size() > 4)
        fatal("%s: '%s' is not mtbf:mttr[:degraded-frac[:slowdown]]",
              flag, text);
    spec.enabled = true;
    spec.mtbfS = parseDurationToken(flag, parts[0]);
    spec.mttrS = parseDurationToken(flag, parts[1]);
    if (spec.mtbfS <= 0.0)
        fatal("%s: MTBF must be positive, got '%s'", flag,
              parts[0].c_str());
    if (parts.size() >= 3) {
        spec.degradedFraction = parseDoubleToken(flag, parts[2]);
        if (spec.degradedFraction < 0.0 ||
            spec.degradedFraction > 1.0)
            fatal("%s: degraded fraction %s outside [0, 1]", flag,
                  parts[2].c_str());
    }
    if (parts.size() == 4) {
        spec.slowdownFactor = parseDoubleToken(flag, parts[3]);
        if (spec.slowdownFactor < 1.0)
            fatal("%s: slowdown factor %s must be >= 1", flag,
                  parts[3].c_str());
    }
    return spec;
}

RetryPolicy
parseRetrySpec(const char *flag, const char *text)
{
    RetryPolicy policy;
    if (!text || *text == '\0')
        fatal("%s needs 'none' or budget:backoff (e.g. 3:1ms), got "
              "an empty value",
              flag);
    const std::string s = text;
    if (s == "none") {
        policy.budget = 0;
        return policy;
    }
    const std::vector<std::string> parts = splitColons(s);
    if (parts.size() < 2 || parts.size() > 3)
        fatal("%s: '%s' is not budget:backoff[:jitter]", flag, text);
    const long long budget = parseIntToken(flag, parts[0]);
    if (budget < 0)
        fatal("%s: retry budget must be non-negative, got %lld", flag,
              budget);
    if (budget > kMaxRetryBudget)
        fatal("%s: retry budget %lld exceeds %d", flag, budget,
              kMaxRetryBudget);
    policy.budget = int(budget);
    policy.backoffBaseS = parseDurationToken(flag, parts[1]);
    if (policy.budget > 0 && policy.backoffBaseS <= 0.0)
        fatal("%s: backoff base must be positive, got '%s'", flag,
              parts[1].c_str());
    if (parts.size() == 3) {
        policy.jitter = parseDoubleToken(flag, parts[2]);
        if (policy.jitter < 0.0 || policy.jitter > 1.0)
            fatal("%s: jitter %s outside [0, 1]", flag,
                  parts[2].c_str());
    }
    return policy;
}

FailureSpec
failureSpecFromEndurance(const arch::EnduranceReport &er,
                         double iterationsPerS, Seconds mttrS,
                         std::uint64_t seed)
{
    inca_assert(iterationsPerS > 0.0,
                "iteration rate %f must be positive", iterationsPerS);
    inca_assert(er.iterationsToWearOut > 0.0,
                "endurance report has no finite lifetime");
    FailureSpec spec;
    spec.enabled = true;
    spec.mtbfS = er.iterationsToWearOut / iterationsPerS;
    spec.mttrS = mttrS;
    spec.seed = seed;
    // Each repair restarts on already-cycled cells; first-order model
    // of the endurance curve's downward slope.
    spec.aging = 0.9;
    return spec;
}

} // namespace serving
} // namespace inca
