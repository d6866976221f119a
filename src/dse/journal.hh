/**
 * @file
 * Checkpoint/resume journal for exploration runs.
 *
 * The journal is JSONL: one header object describing the run (a
 * canonical signature of space + options) followed by one object per
 * scored-or-filtered candidate, flushed line by line so a killed run
 * loses at most the line being written. Doubles are printed with
 * %.17g, which round-trips IEEE-754 exactly -- a resumed run that
 * reuses journaled evaluations produces byte-identical frontier
 * exports to an uninterrupted one.
 *
 * Resume never trusts journal order: the Explorer replays the same
 * deterministic strategy stream and merely substitutes journaled
 * evaluations (keyed by candidate index) for engine runs, so a torn
 * tail line, or a journal written at a different thread count, cannot
 * change the result. A journal whose header signature does not match
 * the requested run is a hard error, not a silent restart.
 */

#ifndef INCA_DSE_JOURNAL_HH
#define INCA_DSE_JOURNAL_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>

#include "dse/objectives.hh"

namespace inca {
namespace dse {

/** Identifies the run a journal belongs to. */
struct JournalHeader
{
    /**
     * Canonical description of everything that determines the
     * evaluation stream: space axes, engine, network, phase, batch,
     * strategy, seed, objectives, constraints. Two runs may share a
     * journal iff their signatures are equal.
     */
    std::string signature;
    std::uint64_t spaceSize = 0;

    /** Header serialized as one JSON line (no trailing newline). */
    std::string toJsonLine() const;
};

/** Serialize @p e as one JSON line (no trailing newline). */
std::string evalToJsonLine(const Evaluation &e);

/** Appends one line per evaluation, flushing each. */
class JournalWriter
{
  public:
    JournalWriter() = default;
    ~JournalWriter() { close(); }

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /**
     * Open @p path. With @p append the file is extended (resume --
     * the header is already present), after a newline if its last
     * line lacks one; otherwise it is truncated and @p header written
     * first. Fatal when the file cannot open.
     */
    void open(const std::string &path, const JournalHeader &header,
              bool append);

    bool isOpen() const { return file_ != nullptr; }

    /** Write + flush one evaluation line. */
    void append(const Evaluation &e);

    void close();

  private:
    std::FILE *file_ = nullptr;
};

/** Everything recovered from an existing journal. */
struct JournalContents
{
    JournalHeader header;
    /** Recovered evaluations, keyed by candidate index. */
    std::unordered_map<std::uint64_t, Evaluation> evals;
    /** True when the final line was torn (killed mid-write). */
    bool truncatedTail = false;
    /** With truncatedTail: the journal's length without the torn
     *  line, where a resumed run cuts it before appending. */
    std::uint64_t completeBytes = 0;
};

/**
 * Read the journal JournalWriter wrote at @p path for the run @p run
 * describes, which scores @p arity objectives. Returns false when
 * @p path does not exist. A malformed final line is tolerated
 * (truncatedTail). Fatal on: a file with no parsable header; a header
 * whose signature is not @p run's; a malformed interior line; and any
 * line that parses but cannot belong to the run -- an index outside
 * its space, an objective count other than @p arity on a scored line
 * or other than 0 on an unscored one, or a non-finite number. Each
 * message names the journal, the line and the field.
 */
bool readJournal(const std::string &path, const JournalHeader &run,
                 std::size_t arity, JournalContents &out);

} // namespace dse
} // namespace inca

#endif // INCA_DSE_JOURNAL_HH
