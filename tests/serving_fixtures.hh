/**
 * @file
 * Shared checks for the serving exports (test_serving, test_chaos):
 * byte-identity of every export across thread counts, the cache
 * switch and seed replay, and rectangular CSVs.
 */

#ifndef INCA_TESTS_SERVING_FIXTURES_HH
#define INCA_TESTS_SERVING_FIXTURES_HH

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/cache.hh"
#include "common/thread_pool.hh"
#include "serving/export.hh"

namespace inca {
namespace testutil {

/** The bytes of every export of one report. */
struct ServingExports
{
    std::string text;     ///< reportText
    std::string json;     ///< reportJson before its provenance block
    std::string csv;      ///< requestsCsv
    std::string timeline; ///< timelineCsv
};

/**
 * Every export of @p rep. The JSON is cut at its provenance block,
 * which records the thread count and environment of the run; the
 * rest is a pure function of the spec.
 */
inline ServingExports
servingExports(const serving::ServingReport &rep)
{
    const std::string json = serving::reportJson(rep);
    return {serving::reportText(rep),
            json.substr(0, json.find("\"provenance\"")),
            serving::requestsCsv(rep), serving::timelineCsv(rep)};
}

/**
 * EXPECT every export of @p spec's simulation byte-identical at 1, 2
 * and 8 threads and with the cache off. Each run replays the same
 * seed, so this is also the replay check.
 */
inline void
expectExportsIndependentOfThreadsAndCache(
    const serving::ServingSpec &spec)
{
    const ServingExports ref = servingExports(serving::simulate(spec));
    const auto expectSame = [&](const serving::ServingReport &rep,
                                const std::string &where) {
        const ServingExports got = servingExports(rep);
        EXPECT_EQ(got.text, ref.text) << "reportText " << where;
        EXPECT_EQ(got.json, ref.json) << "reportJson " << where;
        EXPECT_EQ(got.csv, ref.csv) << "requestsCsv " << where;
        EXPECT_EQ(got.timeline, ref.timeline)
            << "timelineCsv " << where;
    };
    for (const int threads : {1, 2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        expectSame(serving::simulate(spec),
                   "at " + std::to_string(threads) + " threads");
    }
    ThreadPool::setGlobalThreads(4);
    setCacheEnabled(false);
    const serving::ServingReport rep = serving::simulate(spec);
    setCacheEnabled(true);
    ThreadPool::setGlobalThreads(1);
    expectSame(rep, "with the cache off");
}

/**
 * EXPECT @p csv to hold a header and @p rows data rows, each with the
 * header's field count. Fields follow RFC 4180: a quoted comma or
 * line break stays inside its field.
 */
inline void
expectRectangular(const std::string &csv, std::size_t rows,
                  const std::string &what)
{
    std::vector<std::size_t> widths;
    std::size_t fields = 1;
    bool quoted = false;
    for (const char c : csv) {
        if (c == '"') {
            quoted = !quoted;
        } else if (!quoted && c == ',') {
            ++fields;
        } else if (!quoted && c == '\n') {
            widths.push_back(fields);
            fields = 1;
        }
    }
    ASSERT_EQ(widths.size(), rows + 1) << what;
    for (std::size_t i = 1; i < widths.size(); ++i)
        ASSERT_EQ(widths[i], widths[0]) << what << " row " << i;
}

} // namespace testutil
} // namespace inca

#endif // INCA_TESTS_SERVING_FIXTURES_HH
