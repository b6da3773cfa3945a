#ifndef RODIN_EXEC_VM_VM_H_
#define RODIN_EXEC_VM_VM_H_

#include <array>
#include <cstdint>
#include <vector>

#include "exec/eval_core.h"
#include "exec/row.h"
#include "exec/vm/bytecode.h"
#include "storage/buffer_pool.h"

namespace rodin::vm {

struct VmScratch;

/// A run of values read in place (a memo slot's entry).
struct ValueSpan {
  const Value* first = nullptr;
  const Value* last = nullptr;
  const Value* begin() const { return first; }
  const Value* end() const { return last; }
};

/// Captured evaluations of one join input's memo slots (the side-only
/// operands of a split join predicate, see CompileJoinPredicate), for a run
/// of that input's rows. Each evaluation runs under a capturing ChargeLog
/// and local method counters, so capturing charges and counts nothing;
/// kLoadSlot later replays an entry's charges and counts where the
/// interpreter would have made them. Storage is flat: one value arena and
/// one charge-span arena shared by every entry, with per-entry offsets.
/// Entry k = row * num_slots + slot.
class SlotMemo {
 public:
  /// Drops every entry (keeping capacity) and fixes the slots per row.
  void Clear(size_t num_slots);

  /// Evaluates every chunk of `slots` against `row`, appending one entry
  /// per slot. `slots.size()` must equal the num_slots given to Clear.
  void Capture(const std::vector<BytecodeChunk>& slots, const Database* db,
               const Row& row, VmScratch* scratch);

  /// Entry `row` x `slot`'s values, valid until the next Clear or Capture.
  ValueSpan Values(size_t row, size_t slot) const {
    const size_t k = row * num_slots_ + slot;
    return ValueSpan{values_.data() + value_off_[k],
                     values_.data() + value_off_[k + 1]};
  }

  /// Replays entry `row` x `slot`'s charges and method counts into `ctx`.
  void Replay(size_t row, size_t slot, EvalContext* ctx) const;

  /// Replays every entry's charges and method counts in entry order: row
  /// by row, slot by slot.
  void ReplayAll(EvalContext* ctx) const;

  /// True when no entry charged a page or counted a method call.
  bool quiet() const {
    return all_.empty() && all_calls_ == 0 && all_cost_fp_ == 0;
  }

  /// Indexes slot `slot` of every row by value: one (value, row) pair per
  /// value, ordered by Value::Compare and then by row. Under that order two
  /// values are equivalent exactly when a kEq compare of them is true
  /// (numerics compare as doubles, different non-numeric kinds never), with
  /// one exception: NaN compares equal to every number. So a slot whose
  /// values hold a NaN, at any depth, gets no index. Returns whether the
  /// index was built; it lives until DropKeyIndex or the next Clear.
  bool BuildKeyIndex(size_t slot);
  void DropKeyIndex();
  bool has_key_index() const { return has_key_index_; }

  /// Sets `rows` to the rows, ascending and each once, whose indexed slot
  /// holds a value equal to one of `keys`: the inner rows a kEq pair
  /// program over an outer entry holding `keys` and the indexed slot
  /// matches. Returns false, with `rows` unspecified, when a key holds a
  /// NaN; the caller then runs the pairs.
  bool ProbeKeys(ValueSpan keys, std::vector<size_t>* rows) const;

  /// Bytes the entries hold (values, charge spans, per-entry offsets and
  /// method counts) and the key index, for the temp-page ledger.
  size_t bytes() const {
    return values_.size() * sizeof(Value) +
           (spans_.size() + all_.spans().size()) * sizeof(ChargeLog::Span) +
           method_calls_.size() * (2 * sizeof(size_t) + 2 * sizeof(uint64_t)) +
           key_index_.size() * sizeof(KeyEntry);
  }

 private:
  /// One key index entry: values_[value] is a value of entry (row, slot).
  struct KeyEntry {
    size_t value;
    size_t row;
  };

  size_t num_slots_ = 0;
  std::vector<Value> values_;
  std::vector<ChargeLog::Span> spans_;
  /// Entry k owns values_[value_off_[k], value_off_[k + 1]) and
  /// spans_[span_off_[k], span_off_[k + 1]); Clear starts both with a 0.
  std::vector<size_t> value_off_;
  std::vector<size_t> span_off_;
  std::vector<uint64_t> method_calls_;
  std::vector<uint64_t> method_cost_fp_;
  /// Every entry's charges in entry order, with runs across entries merged
  /// (ReplayAll's one pass), and the method counts summed.
  ChargeLog all_;
  uint64_t all_calls_ = 0;
  uint64_t all_cost_fp_ = 0;
  /// The capturing log, reused across evaluations.
  ChargeLog capture_;
  /// See BuildKeyIndex.
  std::vector<KeyEntry> key_index_;
  bool has_key_index_ = false;
};

/// What a pair program's kLoadSlot reads: entry `row[i]` of `memo[i]`, for
/// the outer (i = 0) and inner (i = 1) input.
struct PairSlots {
  std::array<const SlotMemo*, 2> memo{};
  std::array<size_t, 2> row{};
  /// False when the caller has replayed this pair's slot charges and
  /// method counts itself (see JoinPredicate::loads_every_slot).
  bool replay = true;
};

/// Per-morsel mutable VM state: the register files and a navigation scratch
/// buffer. Registers are reused across every row a morsel evaluates —
/// cleared, never reallocated — which is where compiled eval's allocation
/// win over the interpreter (fresh std::vector per expression node per row)
/// comes from. One VmScratch per worker morsel; never shared across
/// threads.
struct VmScratch {
  std::vector<std::vector<Value>> vregs;
  /// Per value register, what a pair program's operand reads: a memo
  /// entry kLoadSlot pointed at, or the register's own values.
  std::vector<ValueSpan> views;
  std::vector<uint8_t> bregs;
  /// Temp list for the fused compare's navigation / expansion slow path.
  std::vector<Value> tmp;
  /// Chunk executions (one per row, memo-slot evaluation or join pair a
  /// program runs on), merged into the rodin.vm.rows_evaluated metric by
  /// the engine.
  uint64_t rows = 0;
  /// One-row memos a nested-loop join's probe fills: the outer row being
  /// probed, and the inner row read back per pair from a spilled inner.
  SlotMemo outer_row;
  SlotMemo inner_row;
  /// The inner rows RunPairs or a key probe matched for the outer row
  /// being probed.
  std::vector<size_t> matches;
  /// Join pairs a key probe decided without running their pair program
  /// (so not counted in `rows`), merged into the rodin.vm.pairs_probed
  /// metric by the engine.
  uint64_t pairs_probed = 0;
  /// Debug-only per-opcode execution counts (tests wire this to prove every
  /// instruction is covered); null in production.
  std::array<uint64_t, kNumOpCodes>* opcode_hits = nullptr;

  /// Grows the register files to the chunk's requirements (no-op when
  /// already large enough).
  void Prepare(const BytecodeChunk& chunk) {
    if (vregs.size() < chunk.num_value_regs) vregs.resize(chunk.num_value_regs);
    if (bregs.size() < chunk.num_bool_regs) bregs.resize(chunk.num_bool_regs);
  }
};

/// Runs a predicate program (kRetBool terminal) against `row`. Page charges
/// and method costs flow through `ctx` exactly as interpreted EvalPred's
/// would. The chunk must have passed Validate() (the compiler guarantees
/// this); `row` must have the width the chunk was compiled against.
bool RunPred(const BytecodeChunk& chunk, EvalContext* ctx, const Row& row,
             VmScratch* scratch);

/// Runs a join's pair program (see CompileJoinPredicate) for one (outer,
/// inner) pair: it reads no column, only the memo slots `slots` names, and
/// charges and counts through `ctx` exactly what interpreted EvalPred on
/// the joined row would.
bool RunPairPred(const BytecodeChunk& chunk, EvalContext* ctx,
                 const PairSlots& slots, VmScratch* scratch);

/// RunPairPred for the pairs of one outer row (slots.row[0]) with inner
/// rows 0 .. num_inner-1 of slots.memo[1], in order, appending the inner
/// row of every match to `matches`. The dispatch loop is inlined into the
/// loop over inner rows.
void RunPairs(const BytecodeChunk& chunk, EvalContext* ctx, PairSlots slots,
              size_t num_inner, std::vector<size_t>* matches,
              VmScratch* scratch);

/// Runs a multi-value program (kRetValues terminal); the returned reference
/// points into `scratch` and is valid until its next use.
const std::vector<Value>& RunMulti(const BytecodeChunk& chunk,
                                   EvalContext* ctx, const Row& row,
                                   VmScratch* scratch);

/// Runs a projection program (kRetProj terminal): column k's values are
/// left in scratch->vregs[k] for k in [0, ncols); returns ncols.
size_t RunProj(const BytecodeChunk& chunk, EvalContext* ctx, const Row& row,
               VmScratch* scratch);

}  // namespace rodin::vm

#endif  // RODIN_EXEC_VM_VM_H_
