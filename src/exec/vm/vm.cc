#include "exec/vm/vm.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "query/expr.h"

namespace rodin::vm {

void SlotMemo::Clear(size_t num_slots) {
  num_slots_ = num_slots;
  values_.clear();
  spans_.clear();
  value_off_.assign(1, 0);
  span_off_.assign(1, 0);
  method_calls_.clear();
  method_cost_fp_.clear();
  all_.clear();
  all_calls_ = 0;
  all_cost_fp_ = 0;
  DropKeyIndex();
}

void SlotMemo::Capture(const std::vector<BytecodeChunk>& slots,
                       const Database* db, const Row& row,
                       VmScratch* scratch) {
  RODIN_CHECK(slots.size() == num_slots_, "slot count changed under a memo");
  for (const BytecodeChunk& chunk : slots) {
    capture_.clear();
    uint64_t evals = 0, calls = 0, cost_fp = 0;
    EvalContext ec{db, &capture_, &evals, &calls, &cost_fp, scratch};
    const std::vector<Value>& vals = RunMulti(chunk, &ec, row, scratch);
    values_.insert(values_.end(), vals.begin(), vals.end());
    spans_.insert(spans_.end(), capture_.spans().begin(),
                  capture_.spans().end());
    value_off_.push_back(values_.size());
    span_off_.push_back(spans_.size());
    method_calls_.push_back(calls);
    method_cost_fp_.push_back(cost_fp);
    all_.Append(capture_);
    all_calls_ += calls;
    all_cost_fp_ += cost_fp;
  }
}

void SlotMemo::Replay(size_t row, size_t slot, EvalContext* ctx) const {
  const size_t k = row * num_slots_ + slot;
  for (size_t i = span_off_[k]; i < span_off_[k + 1]; ++i) {
    const ChargeLog::Span& sp = spans_[i];
    ctx->charger->ChargeRun(sp.first, sp.count, sp.step);
  }
  *ctx->method_calls += method_calls_[k];
  *ctx->method_cost_fp += method_cost_fp_[k];
}

void SlotMemo::ReplayAll(EvalContext* ctx) const {
  all_.ReplayInto(ctx->charger);
  *ctx->method_calls += all_calls_;
  *ctx->method_cost_fp += all_cost_fp_;
}

namespace {

/// True when `v` is a NaN or a collection holding one at any depth: the one
/// kind of value on which Value::Compare is not a strict weak order.
bool HoldsNaN(const Value& v) {
  if (v.is_real()) return std::isnan(v.AsReal());
  if (!v.is_collection()) return false;
  for (const Value& e : v.AsCollection().elems) {
    if (HoldsNaN(e)) return true;
  }
  return false;
}

}  // namespace

bool SlotMemo::BuildKeyIndex(size_t slot) {
  DropKeyIndex();
  const size_t rows =
      num_slots_ == 0 ? 0 : (value_off_.size() - 1) / num_slots_;
  for (size_t r = 0; r < rows; ++r) {
    const size_t k = r * num_slots_ + slot;
    for (size_t v = value_off_[k]; v < value_off_[k + 1]; ++v) {
      if (HoldsNaN(values_[v])) {
        DropKeyIndex();
        return false;
      }
      key_index_.push_back(KeyEntry{v, r});
    }
  }
  std::sort(key_index_.begin(), key_index_.end(),
            [this](const KeyEntry& a, const KeyEntry& b) {
              const int c = values_[a.value].Compare(values_[b.value]);
              return c != 0 ? c < 0 : a.row < b.row;
            });
  has_key_index_ = true;
  return true;
}

void SlotMemo::DropKeyIndex() {
  key_index_.clear();
  key_index_.shrink_to_fit();
  has_key_index_ = false;
}

bool SlotMemo::ProbeKeys(ValueSpan keys, std::vector<size_t>* rows) const {
  rows->clear();
  for (const Value& key : keys) {
    if (HoldsNaN(key)) return false;
    auto it = std::lower_bound(key_index_.begin(), key_index_.end(), key,
                               [this](const KeyEntry& e, const Value& k) {
                                 return values_[e.value].Compare(k) < 0;
                               });
    for (; it != key_index_.end() && values_[it->value].Compare(key) == 0;
         ++it) {
      rows->push_back(it->row);
    }
  }
  // One key's rows are already ascending; several keys' ranges interleave.
  if (keys.end() - keys.begin() > 1) std::sort(rows->begin(), rows->end());
  rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
  return true;
}

namespace {

/// Applies `op` to a Value::Compare-style ordering result.
inline bool ApplyCmp(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

/// CompareValues with the variant dispatch peeled for the common typed
/// cases. The numeric branch replicates Value::Compare's numeric rule
/// exactly — all numerics compare as doubles (including int/int), so large
/// int64s must NOT short-cut to integer comparison.
inline bool FastCompare(CompareOp op, const Value& a, const Value& b) {
  const bool a_num = a.is_int() || a.is_real();
  const bool b_num = b.is_int() || b.is_real();
  if (a_num && b_num) {
    const double x = a.AsNumber();
    const double y = b.AsNumber();
    return ApplyCmp(op, x < y ? -1 : (x > y ? 1 : 0));
  }
  if (a.is_string() && b.is_string()) {
    return ApplyCmp(op, a.AsString().compare(b.AsString()));
  }
  if (a.is_ref() && b.is_ref()) {
    const Oid x = a.AsRef();
    const Oid y = b.AsRef();
    return ApplyCmp(op, x == y ? 0 : (x < y ? -1 : 1));
  }
  return ApplyCmp(op, a.Compare(b));
}

/// The bodies of the value instructions both dispatch loops share; `L` and
/// `R` are a register's vector or a ValueSpan.
template <class L, class R>
inline void ArithInto(ArithOp op, const L& l, const R& r,
                      std::vector<Value>* dst) {
  dst->clear();
  const bool add = op == ArithOp::kAdd;
  for (const Value& a : l) {
    for (const Value& b : r) {
      if (a.is_int() && b.is_int()) {
        dst->push_back(
            Value::Int(add ? a.AsInt() + b.AsInt() : a.AsInt() - b.AsInt()));
      } else {
        const double x = a.AsNumber();
        const double y = b.AsNumber();
        dst->push_back(Value::Real(add ? x + y : x - y));
      }
    }
  }
}

template <class L, class R>
inline bool AnyCompare(CompareOp op, const L& l, const R& r) {
  for (const Value& a : l) {
    for (const Value& b : r) {
      if (FastCompare(op, a, b)) return true;
    }
  }
  return false;
}

template <class V>
inline bool AnyTrue(const V& vals) {
  for (const Value& v : vals) {
    if (v.is_bool() && v.AsBool()) return true;
  }
  return false;
}

enum class RetKind { kBool, kValues, kProj };

struct RunResult {
  RetKind kind;
  bool b = false;
  uint16_t vreg = 0;
  uint32_t nproj = 0;
};

RunResult Run(const BytecodeChunk& chunk, EvalContext* ctx, const Row& row,
              VmScratch* s) {
  s->Prepare(chunk);
  ++s->rows;
  auto& vregs = s->vregs;
  auto& bregs = s->bregs;
  size_t ip = 0;
  while (true) {
    const Instr& in = chunk.code[ip];
    if (s->opcode_hits != nullptr) {
      ++(*s->opcode_hits)[static_cast<size_t>(in.op)];
    }
    ++ip;
    switch (in.op) {
      case OpCode::kLoadConst: {
        auto& dst = vregs[in.a];
        dst.clear();
        dst.push_back(chunk.consts[in.d]);
        break;
      }
      case OpCode::kLoadNull:
        vregs[in.a].clear();
        break;
      case OpCode::kLoadColumn: {
        auto& dst = vregs[in.a];
        dst.clear();
        ExpandValue(row[in.d], &dst);
        break;
      }
      case OpCode::kNavigate: {
        auto& dst = vregs[in.a];
        dst.clear();
        NavigateBound(ctx, row[in.d], chunk.paths[in.e], 0, &dst);
        break;
      }
      case OpCode::kLoadSlot:
        RODIN_CHECK(false, "memo slot outside a pair program");
        break;
      case OpCode::kArith:
        ArithInto(static_cast<ArithOp>(in.d), vregs[in.b], vregs[in.c],
                  &vregs[in.a]);
        break;
      case OpCode::kCompare:
        bregs[in.a] =
            AnyCompare(static_cast<CompareOp>(in.d), vregs[in.b], vregs[in.c]);
        break;
      case OpCode::kCmpColConst: {
        const Value& cv = row[in.c];
        const Value& lit = chunk.consts[in.d];
        const CompareOp op = static_cast<CompareOp>(in.b);
        bool res = false;
        if (in.e == kNoPath) {
          if (cv.is_null()) {
            // Null column: the expanded value list is empty, so the exists
            // comparison is vacuously false. No work, no charges.
          } else if (!cv.is_collection()) {
            res = FastCompare(op, cv, lit);
          } else {
            s->tmp.clear();
            ExpandValue(cv, &s->tmp);
            for (const Value& v : s->tmp) {
              if (FastCompare(op, v, lit)) {
                res = true;
                break;
              }
            }
          }
        } else {
          // The path side materializes in full first (charging every
          // dereference), exactly like interpreted EvalMulti; only the
          // comparison loop short-circuits.
          s->tmp.clear();
          NavigateBound(ctx, cv, chunk.paths[in.e], 0, &s->tmp);
          for (const Value& v : s->tmp) {
            if (FastCompare(op, v, lit)) {
              res = true;
              break;
            }
          }
        }
        bregs[in.a] = res;
        break;
      }
      case OpCode::kAnyTrue:
        bregs[in.a] = AnyTrue(vregs[in.b]);
        break;
      case OpCode::kBoolValue: {
        auto& dst = vregs[in.a];
        dst.clear();
        dst.push_back(Value::Bool(bregs[in.b] != 0));
        break;
      }
      case OpCode::kLoadBool:
        bregs[in.a] = in.d != 0 ? 1 : 0;
        break;
      case OpCode::kNot:
        bregs[in.a] = bregs[in.b] != 0 ? 0 : 1;
        break;
      case OpCode::kJumpIfFalse:
        if (bregs[in.a] == 0) ip = in.d;
        break;
      case OpCode::kJumpIfTrue:
        if (bregs[in.a] != 0) ip = in.d;
        break;
      case OpCode::kRetBool:
        return RunResult{RetKind::kBool, bregs[in.a] != 0, 0, 0};
      case OpCode::kRetValues:
        return RunResult{RetKind::kValues, false, in.a, 0};
      case OpCode::kRetProj:
        return RunResult{RetKind::kProj, false, 0, in.d};
    }
  }
}

/// The dispatch loop of pair programs (see CompileJoinPredicate), which
/// read memo slots and never a column. Value operands are read through
/// `s->views`: kLoadSlot points its register's view at the memo entry in
/// place, every other value instruction at its own register. The views are
/// reset per run, so a register no instruction of this run wrote reads as
/// empty, never as a span into an earlier run's memo.
[[gnu::always_inline]] inline bool RunPair(const BytecodeChunk& chunk,
                                           EvalContext* ctx,
                                           const PairSlots& slots,
                                           VmScratch* s) {
  ++s->rows;
  auto& vregs = s->vregs;
  auto& bregs = s->bregs;
  ValueSpan* views = s->views.data();
  std::fill_n(views, chunk.num_value_regs, ValueSpan{});
  auto own = [&](uint16_t r) {
    views[r] = ValueSpan{vregs[r].data(), vregs[r].data() + vregs[r].size()};
  };
  size_t ip = 0;
  while (true) {
    const Instr& in = chunk.code[ip];
    if (s->opcode_hits != nullptr) {
      ++(*s->opcode_hits)[static_cast<size_t>(in.op)];
    }
    ++ip;
    switch (in.op) {
      case OpCode::kLoadConst: {
        auto& dst = vregs[in.a];
        dst.clear();
        dst.push_back(chunk.consts[in.d]);
        own(in.a);
        break;
      }
      case OpCode::kLoadNull:
        views[in.a] = ValueSpan{};
        break;
      case OpCode::kLoadSlot: {
        const SlotMemo* memo = slots.memo[in.b];
        RODIN_CHECK(memo != nullptr, "pair program without its memo");
        if (slots.replay) memo->Replay(slots.row[in.b], in.d, ctx);
        views[in.a] = memo->Values(slots.row[in.b], in.d);
        break;
      }
      case OpCode::kArith:
        ArithInto(static_cast<ArithOp>(in.d), views[in.b], views[in.c],
                  &vregs[in.a]);
        own(in.a);
        break;
      case OpCode::kCompare:
        bregs[in.a] =
            AnyCompare(static_cast<CompareOp>(in.d), views[in.b], views[in.c]);
        break;
      case OpCode::kAnyTrue:
        bregs[in.a] = AnyTrue(views[in.b]);
        break;
      case OpCode::kBoolValue: {
        auto& dst = vregs[in.a];
        dst.clear();
        dst.push_back(Value::Bool(bregs[in.b] != 0));
        own(in.a);
        break;
      }
      case OpCode::kLoadBool:
        bregs[in.a] = in.d != 0 ? 1 : 0;
        break;
      case OpCode::kNot:
        bregs[in.a] = bregs[in.b] != 0 ? 0 : 1;
        break;
      case OpCode::kJumpIfFalse:
        if (bregs[in.a] == 0) ip = in.d;
        break;
      case OpCode::kJumpIfTrue:
        if (bregs[in.a] != 0) ip = in.d;
        break;
      case OpCode::kRetBool:
        return bregs[in.a] != 0;
      default:
        RODIN_CHECK(false, "instruction outside a pair program");
        return false;
    }
  }
}

void PreparePair(const BytecodeChunk& chunk, VmScratch* s) {
  s->Prepare(chunk);
  if (s->views.size() < chunk.num_value_regs) {
    s->views.resize(chunk.num_value_regs);
  }
}

}  // namespace

void RunPairs(const BytecodeChunk& chunk, EvalContext* ctx, PairSlots slots,
              size_t num_inner, std::vector<size_t>* matches,
              VmScratch* scratch) {
  PreparePair(chunk, scratch);
  for (size_t r = 0; r < num_inner; ++r) {
    slots.row[1] = r;
    if (RunPair(chunk, ctx, slots, scratch)) matches->push_back(r);
  }
}

bool RunPairPred(const BytecodeChunk& chunk, EvalContext* ctx,
                 const PairSlots& slots, VmScratch* scratch) {
  PreparePair(chunk, scratch);
  return RunPair(chunk, ctx, slots, scratch);
}

bool RunPred(const BytecodeChunk& chunk, EvalContext* ctx, const Row& row,
             VmScratch* scratch) {
  const RunResult r = Run(chunk, ctx, row, scratch);
  RODIN_CHECK(r.kind == RetKind::kBool, "chunk is not a predicate program");
  return r.b;
}

const std::vector<Value>& RunMulti(const BytecodeChunk& chunk,
                                   EvalContext* ctx, const Row& row,
                                   VmScratch* scratch) {
  const RunResult r = Run(chunk, ctx, row, scratch);
  RODIN_CHECK(r.kind == RetKind::kValues, "chunk is not a value program");
  return scratch->vregs[r.vreg];
}

size_t RunProj(const BytecodeChunk& chunk, EvalContext* ctx, const Row& row,
               VmScratch* scratch) {
  const RunResult r = Run(chunk, ctx, row, scratch);
  RODIN_CHECK(r.kind == RetKind::kProj, "chunk is not a projection program");
  return r.nproj;
}

}  // namespace rodin::vm
