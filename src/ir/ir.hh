/**
 * @file
 * The lowering IR: a typed instruction stream over named on-chip
 * resources, shared by the analytic engines and the event-driven
 * timing backend.
 *
 * A Program is a flat, topologically ordered list of instructions
 * (every dependency points strictly backwards) grouped into spans.
 * One span corresponds to one arch::LayerCost of the analytic
 * engines' RunCost -- except synthetic spans (pipeline fill/drain
 * placeholders), which carry latency but no layer row. The key
 * contract, enforced by tests/test_event_backend.cc:
 *
 *  - collapseSpan() folds a span back into the exact LayerCost the
 *    analytic engine used to compute: stats merge in instruction
 *    order (preserving the per-key addition order of the original
 *    engine code), and latency is the span's internal critical path;
 *  - analyticWalk() reproduces the engine's program-order latency
 *    accumulation bit-exactly -- it IS the analytic engine, consuming
 *    the instruction stream instead of ad-hoc per-layer math;
 *  - the event backend (src/event) executes the same instructions
 *    through a dependency-driven event queue; with overlap disabled
 *    its schedule folds to the identical floating-point additions, so
 *    the two backends agree to the last ULP.
 *
 * Off-critical spans model work the analytic engine reports per layer
 * but keeps off the run makespan (the WS training pipeline hides the
 * per-layer passes behind fill + drain); the event backend excludes
 * them from the exit sync for the same reason.
 *
 * Instructions are flat: fixed fields, inline dependency and operand
 * lists, a StatSet array, and operands and labels as ids into the
 * program's name table. Names are spelled only by disassemble(), the
 * event trace and validate()'s failure messages, so a lowering makes
 * a handful of allocations, not several per instruction.
 */

#ifndef INCA_IR_IR_HH
#define INCA_IR_IR_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "arch/cost.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/units.hh"
#include "nn/layer.hh"

namespace inca {
namespace ir {

/** Instruction opcode. */
enum class Op
{
    Load,       ///< stream weights/inputs through buffer or DRAM
    Mvm,        ///< analog matrix-vector multiply (array reads)
    Move,       ///< write results into arrays / write-back path
    Activation, ///< digital post-processing (ReLU, pool, add)
    Reduce,     ///< ADC conversion + shift-accumulate / adder tree
    Sync,       ///< join point; no work, no stats
};

/** Named on-chip resource an instruction occupies. */
enum class Unit
{
    Dram,
    Buffer,
    Array,
    Adc,
    Digital,
    Pipeline, ///< abstract inter-layer pipeline (fill/drain spans)
    Ctrl,     ///< sequencer (sync instructions)
};

inline constexpr int kUnitCount = int(Unit::Ctrl) + 1;

const char *opName(Op op);
const char *unitName(Unit unit);

/** Reverse of unitName ("dram" -> Unit::Dram); false when unknown. */
bool unitByName(const std::string &name, Unit &out);

/**
 * A list of at most N values stored inline; growing past N is a
 * simulator bug.
 */
template <typename T, int N>
class InlineList
{
  public:
    InlineList() = default;
    InlineList(std::initializer_list<T> values)
    {
        for (const T &v : values)
            push_back(v);
    }

    void
    push_back(const T &v)
    {
        inca_assert(size_ < N, "inline list holds at most %d values", N);
        values_[size_++] = v;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const T &operator[](std::size_t i) const { return values_[i]; }
    T *begin() { return values_; }
    T *end() { return values_ + size_; }
    const T *begin() const { return values_; }
    const T *end() const { return values_ + size_; }

    bool operator==(const InlineList &other) const = default;

  private:
    T values_[N] = {}; ///< value-initialized past size_
    std::uint8_t size_ = 0;
};

/** Index into Program::names. */
using NameId = std::uint16_t;

/** No name-table entry (a label whose verb stands alone). */
inline constexpr NameId kNoName = 0xffff;

/** What a tensor operand holds: the first part of its name. */
enum class Role : std::uint8_t
{
    Act,     ///< "act": activations
    Grad,    ///< "grad": errors flowing back
    WFetch,  ///< "w.fetch": weights fetched for an IS layer
    WTFetch, ///< "wT.fetch": transposed weights fetched
    Psum,    ///< "psum": analog partial sums
    Out,     ///< "out": converted outputs
    Err,     ///< "err": converted errors
    Dw,      ///< "dw": weight gradients
    W,       ///< "w": stored weights
    WT,      ///< "wT": stored transposed weights
    Fetch,   ///< "fetch": WS inputs fetched from the buffer
};

inline constexpr int kRoleCount = int(Role::Fetch) + 1;

/** A tensor operand, spelled "<role>.<name>" ("act.conv1"). */
struct Operand
{
    Role role = Role::Act;
    NameId name = 0;

    bool operator==(const Operand &other) const = default;
};

/** What an instruction does, as its label's first word. */
enum class Verb : std::uint8_t
{
    None, ///< no label
    Load,
    LoadT,
    Mvm,
    Reduce,
    Move,
    Sync,
    Post,
    Writeback,
    Fetch,
    Save,
    StoreActs,
    ProgramWeights,
    Pipe,
    // The verbs below stand alone (no name).
    ReloadStream,  ///< "stream weights"
    ReloadProgram, ///< "program weights"
    ReloadSync,    ///< "sync reload"
    Drain,
    Exit,
};

/** A presentation-only label, spelled "<verb> <name>" ("mvm conv1"). */
struct Label
{
    Verb verb = Verb::None;
    NameId name = kNoName;

    bool operator==(const Label &other) const = default;
};

/** One typed instruction: fixed fields, no heap storage. */
struct Instr
{
    Op op = Op::Sync;
    Unit unit = Unit::Ctrl;
    Label label;                   ///< presentation only ("mvm conv1")
    int span = -1;                 ///< owning span index
    InlineList<int, 6> deps;       ///< global indices, < own index
    Seconds duration = 0.0;        ///< busy time on `unit`
    StatSet stats;                 ///< energy.* / count.* charged
    InlineList<Operand, 2> reads;  ///< tensor operands consumed
    InlineList<Operand, 1> writes; ///< tensor operands produced
};

/** Most instructions one span holds (a WS training stage). */
inline constexpr int kMaxSpanInstrs = 6;

/** A contiguous instruction range backing one LayerCost (or none). */
struct Span
{
    std::string name;
    nn::LayerKind kind = nn::LayerKind::Conv;
    int first = 0; ///< index of the span's first instruction
    int count = 0; ///< instructions in the span
    /** Carries latency but produces no LayerCost row (fill/drain). */
    bool synthetic = false;
    /**
     * Produces a LayerCost row but is excluded from the run makespan
     * and from the event backend's exit sync (work the pipeline
     * abstraction hides; see file comment).
     */
    bool offCritical = false;
};

/** A lowered network: the single source of truth both backends run. */
struct Program
{
    std::string network;
    std::string engine; ///< "inca" or "ws"
    arch::Phase phase = arch::Phase::Inference;
    int batchSize = 1;
    std::uint64_t configKeyHash = 0; ///< producing config (provenance)
    Watts idlePower = 0.0;           ///< for static energy
    bool overlap = false; ///< lowered with inter-layer overlap deps

    std::vector<Instr> instrs; ///< ends with the "exit" sync
    std::vector<Span> spans;   ///< cover instrs[0 .. N-2] in order
    std::vector<Operand> inputs; ///< tensors live before instr 0
    /** The names operands and labels refer to ("conv1", "in"). */
    std::vector<std::string> names;
};

/** Append @p name to @p p's name table; returns its id. */
NameId addName(Program &p, std::string name);

/** "act.conv1": the spelling of @p o in @p p. */
std::string operandName(const Program &p, Operand o);

/** "mvm conv1": the spelling of @p l in @p p ("" for Verb::None). */
std::string labelText(const Program &p, Label l);

/** Intra-span critical path (longest dependency chain), exact. */
Seconds spanLatency(const Program &p, const Span &span);

/**
 * Fold a span back into the analytic LayerCost: stats merged in
 * instruction order, latency = spanLatency. Bit-exact with the
 * pre-IR engine arithmetic by construction.
 */
arch::LayerCost collapseSpan(const Program &p, const Span &span);

/**
 * Program-order walk reproducing the analytic engines' accumulation:
 * non-synthetic spans contribute a LayerCost, non-off-critical spans
 * add their latency, synthetic spans add latency only, and static
 * energy is idlePower x total latency. This is the analytic backend.
 */
arch::RunCost analyticWalk(const Program &p);

/**
 * Panic (simulator bug) unless the program is well-formed: spans of
 * at most kMaxSpanInstrs partition the instructions, every dependency
 * is listed once and points strictly backwards into the program (a
 * DAG by construction), durations are finite and non-negative, the
 * final instruction is the single exit sync, and every operand read
 * was either written by an earlier instruction in program order or is
 * a declared program input.
 */
void validate(const Program &p);

/**
 * Deterministic text form: header, one line per instruction with
 * opcode, unit, %.17g duration, dependencies, operands, and span
 * markers. Byte-equality of two disassemblies is used both by the
 * golden snapshots and by the determinism property test.
 */
std::string disassemble(const Program &p);

} // namespace ir
} // namespace inca

#endif // INCA_IR_IR_HH
