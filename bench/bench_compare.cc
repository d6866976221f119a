/**
 * @file
 * CLI wrapper over compareBench(): the CI kernel speedup gate.
 *
 *   bench_compare BASELINE.json CURRENT.json
 *
 * Exit 0 when no SIMD speedup regressed by more than 15%; exit 1 on a
 * regression or an unreadable / off-schema file; exit 2 with the
 * usage line on any flag or a wrong argument count. Regressions and
 * notes go to stdout, one per line.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_compare.hh"

namespace {

bool
readFile(const char *path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr, "usage: %s BASELINE.json CURRENT.json\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3 || argv[1][0] == '-' || argv[2][0] == '-')
        return usage(argv[0]);
    const char *baselinePath = argv[1];
    const char *currentPath = argv[2];

    std::string baseline, current;
    if (!readFile(baselinePath, baseline)) {
        std::fprintf(stderr, "cannot read '%s'\n", baselinePath);
        return 1;
    }
    if (!readFile(currentPath, current)) {
        std::fprintf(stderr, "cannot read '%s'\n", currentPath);
        return 1;
    }

    const auto res = inca::bench::compareBench(baseline, current);
    if (!res.error.empty()) {
        std::fprintf(stderr, "bench_compare: %s\n",
                     res.error.c_str());
        return 1;
    }
    for (const auto &n : res.notes)
        std::printf("note: %s\n", n.c_str());
    for (const auto &r : res.regressions)
        std::printf("REGRESSION: %s\n", r.c_str());
    std::printf("%s: %zu notes, %zu regressions "
                "(threshold %.0f%%, relative to scalar)\n",
                res.ok ? "OK" : "FAIL", res.notes.size(),
                res.regressions.size(),
                100.0 * inca::bench::kRegressionThreshold);
    return res.ok ? 0 : 1;
}
