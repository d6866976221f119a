#include "reliability/mitigation.hh"

#include "common/logging.hh"

namespace inca {
namespace reliability {

RemapTable::RemapTable(int rows, int cols, int spareRows,
                       int spareCols)
    : rows_(rows), cols_(cols), spareRows_(spareRows),
      spareCols_(spareCols), rowMap_(std::size_t(rows)),
      colMap_(std::size_t(cols))
{
    inca_assert(rows > 0 && cols > 0, "bad remap geometry %dx%d",
                rows, cols);
    inca_assert(spareRows >= 0 && spareCols >= 0,
                "negative spare count %d/%d", spareRows, spareCols);
    for (int r = 0; r < rows_; ++r)
        rowMap_[std::size_t(r)] = r;
    for (int c = 0; c < cols_; ++c)
        colMap_[std::size_t(c)] = c;
}

bool
RemapTable::noteFault(int row, int col)
{
    // Already on a healthy spare line in either direction: covered.
    if (rowRemapped(row) || colRemapped(col))
        return true;
    if (usedSpareRows_ < spareRows_) {
        rowMap_[std::size_t(row)] = rows_ + usedSpareRows_;
        ++usedSpareRows_;
        return true;
    }
    if (usedSpareCols_ < spareCols_) {
        colMap_[std::size_t(col)] = cols_ + usedSpareCols_;
        ++usedSpareCols_;
        return true;
    }
    // Spares exhausted: graceful degradation, the fault stays
    // resident and is reported as residual error rate downstream.
    ++residual_;
    return false;
}

RemappedPlane::RemappedPlane(int size, const MitigationSpec &spec)
    // BitPlane is square; one side holds the spare rows and the
    // other the spare columns, so the physical side is size + the
    // larger spare count.
    : size_(size), spec_(spec), verify_(spec.verifyEnabled()),
      attempts_(1 + (verify_ ? std::max(spec.writeVerifyRetries, 0)
                             : 0)),
      plane_(size +
             std::max(std::max(spec.spareRows, spec.spareCols), 0)),
      table_(size, size, spec.spareRows, spec.spareCols),
      intended_(std::size_t(size) * std::size_t(size), -1)
{
}

namespace {

/**
 * The state one write pulse leaves: @p bit, unless a soft
 * write-variation event (probability @p softBer, drawn from @p rng
 * when given) flips it.
 */
inline bool
pulseState(bool bit, Rng *rng, double softBer)
{
    return bit != (rng != nullptr && softBer > 0.0 &&
                   rng->uniform() < softBer);
}

} // namespace

inline int
RemappedPlane::writeCell(int row, int col, bool bit, Rng *rng,
                         double softBer, bool verify, int attempts)
{
    intended_[std::size_t(row) * std::size_t(size_) +
              std::size_t(col)] = bit ? 1 : 0;
    // The cell's lines move only once it has failed for good, so one
    // lookup serves every pulse. The maps are read unchecked (the
    // callers bound row and col): the accessors' panic paths cost the
    // sweep's loop enough registers to spill the generator, which
    // doubled its time. Stuck cells ignore the pulses entirely
    // (BitPlane fault semantics).
    const int pr = table_.rowMap_[std::size_t(row)];
    const int pc = table_.colMap_[std::size_t(col)];
    plane_.writeCell(pr, pc, pulseState(bit, rng, softBer));
    if (!verify)
        return 1; // blind write: errors persist
    int issued = 1;
    while (plane_.cell(pr, pc) != bit) {
        if (issued == attempts) {
            remapFault(row, col);
            break;
        }
        plane_.writeCell(pr, pc, pulseState(bit, rng, softBer));
        ++issued;
    }
    return issued;
}

int
RemappedPlane::write(int row, int col, bool bit, Rng *rng,
                     double softBer)
{
    inca_assert(row >= 0 && row < size_ && col >= 0 && col < size_,
                "logical cell (%d, %d) outside %dx%d array", row, col,
                size_, size_);
    const int issued =
        writeCell(row, col, bit, rng, softBer, verify_, attempts_);
    pulses_ += std::uint64_t(issued);
    return issued;
}

void
RemappedPlane::writeRandomPattern(Rng &rng, double softBer)
{
    // The loop stores bytes into the cells and the intent buffer, and
    // a byte store may alias any object whose address escaped, rng
    // included. This copy's address never escapes, so its state stays
    // in registers across both draws of every cell.
    Rng local = rng;
    const int size = size_;
    const bool verify = verify_;
    const int attempts = attempts_;
    std::uint64_t issued = 0;
    for (int r = 0; r < size; ++r)
        for (int c = 0; c < size; ++c)
            issued += std::uint64_t(
                writeCell(r, c, local.below(2) != 0, &local, softBer,
                          verify, attempts));
    pulses_ += issued;
    rng = local;
}

void
RemappedPlane::remapFault(int row, int col)
{
    // A persistent (hard) fault: remap its line when a spare remains
    // and replay the buffered intent onto the healthy replacement.
    const bool rowWasRemapped = table_.rowRemapped(row);
    const bool colWasRemapped = table_.colRemapped(col);
    if (table_.noteFault(row, col)) {
        if (!rowWasRemapped && table_.rowRemapped(row))
            replayRow(row);
        else if (!colWasRemapped && table_.colRemapped(col))
            replayCol(col);
    }
}

void
RemappedPlane::replayRow(int row)
{
    // Spares are guard-banded, fault-free lines; the replay is a
    // plain buffered rewrite.
    const int pr = table_.physicalRow(row);
    for (int c = 0; c < size_; ++c) {
        const std::int8_t want =
            intended_[std::size_t(row) * std::size_t(size_) +
                      std::size_t(c)];
        if (want < 0)
            continue;
        plane_.writeCell(pr, table_.physicalCol(c), want != 0);
        pulses_ += 1;
    }
}

void
RemappedPlane::replayCol(int col)
{
    const int pc = table_.physicalCol(col);
    for (int r = 0; r < size_; ++r) {
        const std::int8_t want =
            intended_[std::size_t(r) * std::size_t(size_) +
                      std::size_t(col)];
        if (want < 0)
            continue;
        plane_.writeCell(table_.physicalRow(r), pc, want != 0);
        pulses_ += 1;
    }
}

bool
RemappedPlane::read(int row, int col) const
{
    inca_assert(row >= 0 && row < size_ && col >= 0 && col < size_,
                "logical cell (%d, %d) outside %dx%d array", row, col,
                size_, size_);
    return plane_.cell(table_.physicalRow(row),
                       table_.physicalCol(col));
}

int
RemappedPlane::residualErrors() const
{
    int errors = 0;
    for (int r = 0; r < size_; ++r) {
        const int pr = table_.physicalRow(r);
        const std::int8_t *want =
            intended_.data() + std::size_t(r) * std::size_t(size_);
        for (int c = 0; c < size_; ++c)
            if (want[c] >= 0 &&
                plane_.cell(pr, table_.physicalCol(c)) != (want[c] != 0))
                ++errors;
    }
    return errors;
}

WriteVerifyCost
applyWriteVerify(arch::RunCost &run, const MitigationSpec &spec,
                 double softBer, double hardBer,
                 const circuit::RramDevice &device, double writeLanes)
{
    WriteVerifyCost cost;
    if (!spec.verifyEnabled())
        return cost;
    inca_assert(writeLanes > 0.0, "write lanes must be positive");

    const int retries = std::max(spec.writeVerifyRetries, 0);
    // Soft retries converge geometrically; writes that land on a
    // hard-stuck cell never verify and burn the whole retry budget
    // before the remap engine takes over.
    cost.extraPulsesPerWrite =
        (expectedWritePulses(softBer, retries) - 1.0) +
        std::min(std::max(hardBer, 0.0), 0.5) * double(retries);
    cost.verifyReadsPerWrite = 1.0 + cost.extraPulsesPerWrite;

    const Joules pulseEnergy = device.avgWriteEnergy();
    const Joules verifyEnergy = device.avgReadEnergy();

    for (auto &layer : run.layers) {
        const double writes = layer.stats.get(Stat::CountArrayWrite);
        if (writes <= 0.0)
            continue;
        const double extraPulses = writes * cost.extraPulsesPerWrite;
        const double verifyReads = writes * cost.verifyReadsPerWrite;
        const Joules energy =
            extraPulses * pulseEnergy + verifyReads * verifyEnergy;
        layer.stats.add(Stat::CountReliabilityExtraPulse, extraPulses);
        layer.stats.add(Stat::CountReliabilityVerifyRead, verifyReads);
        layer.stats.add(Stat::EnergyReliabilityWriteVerify, energy);
        // Extra pulses and verify reads serialize on each array's
        // write port; the chip's arrays work in parallel.
        const Seconds latency =
            (extraPulses * device.tWrite + verifyReads * device.tRead) /
            writeLanes;
        layer.latency += latency;
        run.latency += latency;
        cost.extraEnergy += energy;
        cost.extraLatency += latency;
    }
    return cost;
}

} // namespace reliability
} // namespace inca
