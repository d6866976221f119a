/**
 * @file
 * Fault-mitigation hardware models and their accounted cost.
 *
 * Two standard RRAM mitigations are modelled, both with explicit
 * energy/latency cost (nothing is free):
 *
 *  - Write-verify retry: every array write is followed by a verify
 *    read; on mismatch the pulse is reissued, up to a bounded retry
 *    budget. Soft write-variation errors shrink geometrically with
 *    the budget (residual = p^(R+1)); the expected extra pulses are
 *    charged into the engines' RunCost via applyWriteVerify().
 *  - Spare-line remapping: each array carries spare rows/columns.
 *    When write-verify flags a cell that never converges (a hard
 *    stuck fault), its row -- or column, when row spares are gone --
 *    is remapped to a spare and replayed. Spares are sized,
 *    guard-banded lines and are modelled fault-free.
 *
 * Exhausting the spares is graceful degradation, never a panic: the
 * residual faulty cells stay in place and surface as a residual
 * bit-error rate, which the campaign converts into an equivalent
 * noise sigma for the accuracy substrate (fault_model.hh's
 * faultNoiseSigma).
 */

#ifndef INCA_RELIABILITY_MITIGATION_HH
#define INCA_RELIABILITY_MITIGATION_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "arch/cost.hh"
#include "circuit/rram.hh"
#include "common/random.hh"
#include "inca/plane.hh"

namespace inca {
namespace reliability {

/** Mitigation hardware configuration. */
struct MitigationSpec
{
    /** Extra write attempts after the initial pulse (0 = no verify). */
    int writeVerifyRetries = 0;
    /** Spare rows per array. */
    int spareRows = 0;
    /** Spare columns per array. */
    int spareCols = 0;

    /** True when writes are verified (retry or remap hardware). */
    bool verifyEnabled() const
    {
        return writeVerifyRetries > 0 || spareRows > 0 ||
               spareCols > 0;
    }
};

/**
 * Expected write pulses per cell under verify-retry against a
 * per-pulse soft failure rate @p softBer: 1 + p + p^2 + ... up to the
 * budget. Monotone non-decreasing in @p retries.
 */
inline double
expectedWritePulses(double softBer, int retries)
{
    const double p = std::min(std::max(softBer, 0.0), 1.0);
    double pulses = 0.0, pk = 1.0;
    for (int k = 0; k <= std::max(retries, 0); ++k) {
        pulses += pk;
        pk *= p;
    }
    return pulses;
}

/**
 * Soft-error rate surviving a verify-retry budget: every attempt
 * fails independently, so residual = p^(retries + 1). Monotone
 * non-increasing in @p retries; retries = 0 returns p itself.
 */
inline double
residualSoftBer(double softBer, int retries)
{
    const double p = std::min(std::max(softBer, 0.0), 1.0);
    return std::pow(p, double(std::max(retries, 0) + 1));
}

/**
 * Logical-to-physical line remapping with bounded spares.
 *
 * Greedy policy, row-first: a fault whose row or column is already
 * remapped is covered for free; otherwise the row is mapped to the
 * next spare row, falling back to a spare column, falling back to
 * counting the fault as residual. noteFault() never fails hard --
 * spare exhaustion is an accounting outcome, not an error.
 */
class RemapTable
{
  public:
    RemapTable(int rows, int cols, int spareRows, int spareCols);

    int rows() const { return rows_; }
    int cols() const { return cols_; }

    // Lookups are inline: RemappedPlane's readback consults the table
    // on every cell of every campaign trial.

    /** Physical row backing logical @p row. */
    int physicalRow(int row) const
    {
        inca_assert(row >= 0 && row < rows_,
                    "logical row %d outside %d", row, rows_);
        return rowMap_[std::size_t(row)];
    }
    /** Physical column backing logical @p col. */
    int physicalCol(int col) const
    {
        inca_assert(col >= 0 && col < cols_,
                    "logical col %d outside %d", col, cols_);
        return colMap_[std::size_t(col)];
    }

    bool rowRemapped(int row) const { return physicalRow(row) >= rows_; }
    bool colRemapped(int col) const { return physicalCol(col) >= cols_; }

    /**
     * Record a persistent fault at logical (@p row, @p col).
     * @return true when the cell is now backed by a healthy line,
     * false when spares are exhausted and the fault stays resident.
     */
    bool noteFault(int row, int col);

    int usedSpareRows() const { return usedSpareRows_; }
    int usedSpareCols() const { return usedSpareCols_; }

    /** Faults left unremapped (spares exhausted). */
    int residualFaults() const { return residual_; }

  private:
    // RemappedPlane's cell path reads the maps unchecked; its callers
    // bound the logical coordinates.
    friend class RemappedPlane;

    int rows_, cols_, spareRows_, spareCols_;
    std::vector<int> rowMap_, colMap_; ///< logical -> physical line
    int usedSpareRows_ = 0;
    int usedSpareCols_ = 0;
    int residual_ = 0;
};

/**
 * A logical size x size bit array backed by a physical BitPlane with
 * spare lines, written through write-verify retry and remapped on
 * persistent failures. This is the functional model the Monte-Carlo
 * campaign trials (writeRandomPattern) and the property tests drive;
 * inject hard faults into plane() (logical region only) before
 * writing.
 */
class RemappedPlane
{
  public:
    RemappedPlane(int size, const MitigationSpec &spec);

    int size() const { return size_; }

    /** The physical plane (size + spares per side). */
    core::BitPlane &plane() { return plane_; }
    const core::BitPlane &plane() const { return plane_; }

    const RemapTable &table() const { return table_; }

    /**
     * Write one logical bit through the mitigation pipeline. With
     * verify enabled, each pulse may soft-fail with probability
     * @p softBer (drawn from @p rng when given); a cell that never
     * verifies within the retry budget is remapped and its lines
     * replayed. Without verify, a single blind pulse is issued and
     * any error persists.
     *
     * @return write pulses issued (including replays).
     */
    int write(int row, int col, bool bit, Rng *rng = nullptr,
              double softBer = 0.0);

    /**
     * Write a random bit to every cell: exactly the draws and writes
     * of the row-major loop
     * `write(r, c, rng.below(2) != 0, &rng, softBer)`, so the cells,
     * counters and @p rng end where that loop leaves them. The
     * generator runs in a local copy, written back at the end, and
     * the checks sit outside the cell loop. One Monte-Carlo campaign
     * trial is one call.
     */
    void writeRandomPattern(Rng &rng, double softBer);

    /** Read one logical bit back through the remap table. */
    bool read(int row, int col) const;

    /** Written cells whose readback differs from the intent. */
    int residualErrors() const;

    /** Total write pulses issued so far. */
    std::uint64_t pulses() const { return pulses_; }

  private:
    /**
     * One cell through the pipeline: the body write() and
     * writeRandomPattern() share, defined inline in mitigation.cc.
     * @p verify and @p attempts are verify_ and attempts_, passed in
     * so the sweep's loop holds them in registers.
     * @return pulses issued, not yet added to pulses_ (replays add
     * theirs).
     */
    inline int writeCell(int row, int col, bool bit, Rng *rng,
                         double softBer, bool verify, int attempts);
    /**
     * A cell that never verified within the budget: remap its line
     * and replay the buffered intent (the cold path, out of line).
     */
    void remapFault(int row, int col);
    /** Re-write every intended bit of a remapped row from buffer. */
    void replayRow(int row);
    /** Re-write every intended bit of a remapped column. */
    void replayCol(int col);

    int size_;
    MitigationSpec spec_;
    bool verify_;  ///< spec_.verifyEnabled()
    int attempts_; ///< pulses a cell gets before it counts as stuck
    core::BitPlane plane_;
    RemapTable table_;
    std::vector<std::int8_t> intended_; ///< -1 unwritten, else 0/1
    std::uint64_t pulses_ = 0;
};

/** What applyWriteVerify() charged into a RunCost. */
struct WriteVerifyCost
{
    /** Expected extra write pulses per array write. */
    double extraPulsesPerWrite = 0.0;
    /** Expected verify reads per array write. */
    double verifyReadsPerWrite = 0.0;
    Joules extraEnergy = 0.0;
    Seconds extraLatency = 0.0;
};

/**
 * Charge write-verify retry cost into @p run: every layer's
 * "count.array.write" events are scaled by the expected retry factor
 * (soft retries converge geometrically; hard-stuck cells burn the
 * whole budget), adding "energy.reliability.write_verify" and
 * "count.reliability.extra_pulse" stats and extending layer and run
 * latency. @p writeLanes is the number of concurrent write ports the
 * extra pulses serialize over (one per subarray on both chips).
 */
WriteVerifyCost applyWriteVerify(arch::RunCost &run,
                                 const MitigationSpec &spec,
                                 double softBer, double hardBer,
                                 const circuit::RramDevice &device,
                                 double writeLanes);

} // namespace reliability
} // namespace inca

#endif // INCA_RELIABILITY_MITIGATION_HH
