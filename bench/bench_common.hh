/**
 * @file
 * Shared scaffolding for the reproduction benchmarks.
 *
 * Every bench binary prints the rows/series of the paper table or
 * figure it regenerates -- paper values side by side with measured
 * ones where the paper prints numbers -- and, given `--json <path>`,
 * writes the same series as JSON.
 */

#ifndef INCA_BENCH_BENCH_COMMON_HH
#define INCA_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <string>

#include "bench_json.hh"
#include "common/env.hh"

namespace inca {
namespace bench {

/** Print a titled section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/**
 * Standard main: check the command line (at most `--json <path>`),
 * print the report once, then write the JSON report when asked.
 */
#define INCA_BENCH_MAIN(reportFn)                                        \
    int main(int argc, char **argv)                                      \
    {                                                                    \
        ::inca::checkEnvironment();                                      \
        const std::string jsonPath =                                     \
            ::inca::bench::benchJsonPath(argc, argv);                    \
        reportFn();                                                      \
        if (!jsonPath.empty())                                           \
            ::inca::bench::JsonReport::instance().write(jsonPath);       \
        return 0;                                                        \
    }

} // namespace bench
} // namespace inca

#endif // INCA_BENCH_BENCH_COMMON_HH
