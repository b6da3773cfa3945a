#include "exec/vm/vm.h"

#include "common/check.h"
#include "query/expr.h"

namespace rodin::vm {

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
  return ApplyCmp(op, a.Compare(b));
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
      case OpCode::kArith: {
        const auto& l = vregs[in.b];
        const auto& r = vregs[in.c];
        auto& dst = vregs[in.a];
        dst.clear();
        const bool add = static_cast<ArithOp>(in.d) == ArithOp::kAdd;
        for (const Value& a : l) {
          for (const Value& b : r) {
            if (a.is_int() && b.is_int()) {
              dst.push_back(Value::Int(add ? a.AsInt() + b.AsInt()
                                           : a.AsInt() - b.AsInt()));
            } else {
              const double x = a.AsNumber();
              const double y = b.AsNumber();
              dst.push_back(Value::Real(add ? x + y : x - y));
            }
          }
        }
        break;
      }
      case OpCode::kCompare: {
        const auto& l = vregs[in.b];
        const auto& r = vregs[in.c];
        const CompareOp op = static_cast<CompareOp>(in.d);
        bool res = false;
        for (const Value& a : l) {
          for (const Value& b : r) {
            if (FastCompare(op, a, b)) {
              res = true;
              break;
            }
          }
          if (res) break;
        }
        bregs[in.a] = res;
        break;
      }
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
      case OpCode::kAnyTrue: {
        bool res = false;
        for (const Value& v : vregs[in.b]) {
          if (v.is_bool() && v.AsBool()) {
            res = true;
            break;
          }
        }
        bregs[in.a] = res;
        break;
      }
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

}  // namespace

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
