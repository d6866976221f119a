/**
 * @file
 * The paper scoreboard: every number the paper prints that we
 * reproduce, next to ours, with the gap we accept and its cause.
 *
 * This module is the only place that holds the paper's published
 * values. Each row pairs one of them with the same quantity from our
 * models, computed live, plus one tolerance from a fixed ladder of
 * rungs and, for a gap above 1 %, the known cause of the gap (or
 * "unexplained" and what was ruled out). `paper_report` prints every
 * row; `PaperScoreboard.*` checks every analytic row.
 *
 * The gap of a row is max(ours / paper, paper / ours). A row's
 * tolerance is the tightest rung its gap passes, so a model change
 * that closes or widens a gap moves the row off its rung and fails
 * the check until the row is updated.
 */

#ifndef INCA_SIM_PAPER_HH
#define INCA_SIM_PAPER_HH

#include <string>
#include <vector>

namespace inca {
namespace sim {

/** One published number and ours. */
struct PaperRow
{
    std::string name;       ///< artefact, column and item
    double paper = 0.0;     ///< the value the paper prints
    double ours = 0.0;      ///< the same quantity from our models
    double tolerance = 0.0; ///< a rung of the ladder; 0 = none
    std::string cause;      ///< why ours differs; needed if gap > 1.01

    /** max(ours / paper, paper / ours). */
    double gap() const;
};

/**
 * The tightest rung of the tolerance ladder {1.001, 1.005, 1.01, 1.02,
 * 1.05, 1.1, 1.25, 1.5, 2, 3, 5, 10} that @p gap passes (gap <= rung);
 * 0 when it passes none.
 */
double tightestRung(double gap);

/** The published value of row @p name; panics on an unknown name. */
double paperValue(const std::string &name);

/** Row @p name with @p ours filled in; panics on an unknown name. */
PaperRow paperRow(const std::string &name, double ours);

/**
 * Every row our analytic models compute, in paper order: Figs. 1b
 * and 7, Tables III-V, Figs. 11, 13a and 14. The training rows
 * (Tables I and VI) carry no tolerance; paper_report fills them from
 * nn::AccuracyStudy through paperRow().
 */
std::vector<PaperRow> analyticRows();

/** @p rows as a table, then the distinct causes it numbers. */
std::string scoreboardText(const std::vector<PaperRow> &rows);

} // namespace sim
} // namespace inca

#endif // INCA_SIM_PAPER_HH
