#include "exec/vm/compiler.h"

#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/string_util.h"
#include "exec/eval_core.h"
#include "plan/pt_printer.h"

namespace rodin::vm {

namespace {

/// Operand ceilings: register operands are 16 bits wide and pool / path /
/// jump operands 32 bits. No expression the parser or builder can produce
/// gets near them (the recursive descent would exhaust the stack first), so
/// reaching one is an invariant violation, not a reason to decline.
constexpr int kMaxRegs = 0xffff;
constexpr size_t kMaxPoolEntries = kNoPath;  // kNoPath is the sentinel

/// Flips a comparison so that CompareValues(Flipped(op), b, a) ==
/// CompareValues(op, a, b) under the Value total order. Lets the fused
/// column-vs-constant compare normalize "literal op path" to "path
/// flipped-op literal".
CompareOp Flipped(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    case CompareOp::kEq:
    case CompareOp::kNe:
      return op;
  }
  return op;
}

/// Split mode (CompileJoinPredicate): the one-input operands of a join
/// predicate become memo slots instead of instructions.
struct JoinSplit {
  const RowSchema* outer;
  const RowSchema* inner;
  JoinPredicate* out;
};

BytecodeChunk Finish(BytecodeChunk chunk);

/// Emits one expression tree into a chunk, mirroring EvalPred / EvalMulti
/// node for node so the compiled program performs page charges and method
/// invocations at identical points in identical order. Registers are
/// stack-allocated: children evaluate into temporaries released afterwards,
/// high-water marks become the chunk's register-file sizes. Total: every
/// expression of a well-formed plan compiles.
class Compiler {
 public:
  Compiler(const RowSchema& schema, const Database& db, BytecodeChunk* chunk,
           const JoinSplit* split = nullptr)
      : schema_(schema), db_(db), chunk_(chunk), split_(split) {
    // Column operands are at least 16 bits wide (CmpColConst's `c`).
    RODIN_CHECK(schema.cols.size() <= 0xffff, "row too wide");
    chunk_->num_cols = static_cast<uint32_t>(schema.cols.size());
  }

  int AllocV() {
    RODIN_CHECK(next_v_ < kMaxRegs, "value register file overflow");
    const int r = next_v_++;
    if (next_v_ > chunk_->num_value_regs) {
      chunk_->num_value_regs = static_cast<uint16_t>(next_v_);
    }
    return r;
  }
  void FreeV(int r) { next_v_ = r; }

  int AllocB() {
    RODIN_CHECK(next_b_ < kMaxRegs, "bool register file overflow");
    const int r = next_b_++;
    if (next_b_ > chunk_->num_bool_regs) {
      chunk_->num_bool_regs = static_cast<uint16_t>(next_b_);
    }
    return r;
  }
  void FreeB(int r) { next_b_ = r; }

  size_t Emit(OpCode op, int a = 0, int b = 0, int c = 0, uint32_t d = 0,
              uint32_t e = 0) {
    RODIN_CHECK(code().size() < kMaxPoolEntries, "chunk too long");
    Instr in;
    in.op = op;
    in.a = static_cast<uint16_t>(a);
    in.b = static_cast<uint16_t>(b);
    in.c = static_cast<uint16_t>(c);
    in.d = d;
    in.e = e;
    code().push_back(in);
    return code().size() - 1;
  }

  void PatchJump(size_t at) {
    code()[at].d = static_cast<uint32_t>(code().size());
  }

  uint32_t InternConst(const Value& v) {
    RODIN_CHECK(chunk_->consts.size() < kMaxPoolEntries, "constant pool full");
    return chunk_->AddConst(v);
  }

  uint32_t InternPath(const std::vector<std::string>& p) {
    RODIN_CHECK(chunk_->paths.size() < kMaxPoolEntries, "path table full");
    return chunk_->AddPath(db_, p);
  }

  /// Resolves a kVarPath against the schema. A path no column resolves is
  /// a planner or builder bug: abort, exactly like the interpreter.
  void Resolve(const Expr& e, int* col, std::vector<std::string>* rest) {
    const bool resolved = schema_.ResolveVarPath(e.var(), e.path(), col, rest);
    RODIN_CHECK(resolved, "unresolvable variable path in compiler");
  }

  /// EvalPred equivalent: leaves the boolean result in b[dst].
  void EmitPred(const ExprPtr& pred, int dst) {
    if (pred == nullptr) {
      Emit(OpCode::kLoadBool, dst, 0, 0, 1);
      return;
    }
    switch (pred->kind()) {
      case ExprKind::kAnd: {
        std::vector<size_t> exits;
        const auto& cs = pred->children();
        if (cs.empty()) {
          Emit(OpCode::kLoadBool, dst, 0, 0, 1);
          return;
        }
        for (size_t i = 0; i < cs.size(); ++i) {
          EmitPred(cs[i], dst);
          if (i + 1 < cs.size()) {
            exits.push_back(Emit(OpCode::kJumpIfFalse, dst));
          }
        }
        for (size_t at : exits) PatchJump(at);
        return;
      }
      case ExprKind::kOr: {
        std::vector<size_t> exits;
        const auto& cs = pred->children();
        if (cs.empty()) {
          Emit(OpCode::kLoadBool, dst, 0, 0, 0);
          return;
        }
        for (size_t i = 0; i < cs.size(); ++i) {
          EmitPred(cs[i], dst);
          if (i + 1 < cs.size()) {
            exits.push_back(Emit(OpCode::kJumpIfTrue, dst));
          }
        }
        for (size_t at : exits) PatchJump(at);
        return;
      }
      case ExprKind::kNot:
        EmitPred(pred->children()[0], dst);
        Emit(OpCode::kNot, dst, dst);
        return;
      case ExprKind::kCompare: {
        const ExprPtr& l = pred->children()[0];
        const ExprPtr& r = pred->children()[1];
        // Fused fast path: column/path against a constant. The literal side
        // has no evaluation effects, so normalizing "literal op path" to
        // "path flipped-op literal" preserves the interpreted charge order
        // (the path side is still materialized in full before comparing).
        // A pair program has no fused compare: its paths are all slots.
        int col = -1;
        std::vector<std::string> rest;
        if (split_ == nullptr && l->kind() == ExprKind::kVarPath &&
            r->kind() == ExprKind::kLiteral) {
          Resolve(*l, &col, &rest);
          EmitCmpColConst(dst, pred->compare_op(), col, rest, r->literal());
          return;
        }
        if (split_ == nullptr && r->kind() == ExprKind::kVarPath &&
            l->kind() == ExprKind::kLiteral) {
          Resolve(*r, &col, &rest);
          EmitCmpColConst(dst, Flipped(pred->compare_op()), col, rest,
                          l->literal());
          return;
        }
        // General form: materialize both sides fully (left first, exactly
        // like EvalPred), then the exists-semantics comparison.
        const int va = AllocV();
        EmitMulti(l, va);
        const int vb = AllocV();
        EmitMulti(r, vb);
        Emit(OpCode::kCompare, dst, va, vb,
             static_cast<uint32_t>(pred->compare_op()));
        FreeV(vb);
        FreeV(va);
        return;
      }
      case ExprKind::kLiteral:
        Emit(OpCode::kLoadBool, dst, 0, 0,
             pred->literal().is_bool() && pred->literal().AsBool() ? 1 : 0);
        return;
      case ExprKind::kArith:
        // A bare arithmetic expression is not a predicate (EvalPred returns
        // false without evaluating the operands).
        Emit(OpCode::kLoadBool, dst, 0, 0, 0);
        return;
      case ExprKind::kVarPath: {
        const int v = AllocV();
        EmitMulti(pred, v);
        Emit(OpCode::kAnyTrue, dst, v);
        FreeV(v);
        return;
      }
    }
    RODIN_CHECK(false, "unknown expression kind");
  }

  /// EvalMulti equivalent: leaves the value list in v[dst].
  void EmitMulti(const ExprPtr& expr, int dst) {
    if (expr == nullptr) {
      Emit(OpCode::kLoadNull, dst);  // EvalMulti(null) is empty
      return;
    }
    if (split_ != nullptr && EmitSlot(expr, dst)) return;
    switch (expr->kind()) {
      case ExprKind::kLiteral:
        Emit(OpCode::kLoadConst, dst, 0, 0, InternConst(expr->literal()));
        return;
      case ExprKind::kVarPath: {
        int col = -1;
        std::vector<std::string> rest;
        Resolve(*expr, &col, &rest);
        if (rest.empty()) {
          Emit(OpCode::kLoadColumn, dst, 0, 0, static_cast<uint32_t>(col));
        } else {
          Emit(OpCode::kNavigate, dst, 0, 0, static_cast<uint32_t>(col),
               InternPath(rest));
        }
        return;
      }
      case ExprKind::kArith: {
        const int va = AllocV();
        EmitMulti(expr->children()[0], va);
        const int vb = AllocV();
        EmitMulti(expr->children()[1], vb);
        Emit(OpCode::kArith, dst, va, vb,
             static_cast<uint32_t>(expr->arith_op()));
        FreeV(vb);
        FreeV(va);
        return;
      }
      case ExprKind::kCompare:
      case ExprKind::kAnd:
      case ExprKind::kOr:
      case ExprKind::kNot: {
        const int b = AllocB();
        EmitPred(expr, b);
        Emit(OpCode::kBoolValue, dst, b);
        FreeB(b);
        return;
      }
    }
    RODIN_CHECK(false, "unknown expression kind");
  }

 private:
  /// Split mode: loads an operand that reads one join input only from a
  /// fresh memo slot of that input. False for any other operand.
  bool EmitSlot(const ExprPtr& expr, int dst) {
    const JoinSide side =
        OperandSide(*expr, schema_, split_->outer->cols.size());
    if (side != JoinSide::kOuter && side != JoinSide::kInner) return false;
    const int input = side == JoinSide::kOuter ? 0 : 1;
    std::vector<BytecodeChunk>& slots =
        input == 0 ? split_->out->outer_slots : split_->out->inner_slots;
    BytecodeChunk slot;
    Compiler c(input == 0 ? *split_->outer : *split_->inner, db_, &slot);
    const int v = c.AllocV();
    c.EmitMulti(expr, v);
    c.Emit(OpCode::kRetValues, v);
    RODIN_CHECK(slots.size() < kMaxPoolEntries, "slot table full");
    Emit(OpCode::kLoadSlot, dst, input, 0,
         static_cast<uint32_t>(slots.size()));
    slots.push_back(Finish(std::move(slot)));
    chunk_->num_slots[input] = static_cast<uint32_t>(slots.size());
    return true;
  }

  void EmitCmpColConst(int dst, CompareOp op, int col,
                       const std::vector<std::string>& rest,
                       const Value& literal) {
    Emit(OpCode::kCmpColConst, dst, static_cast<int>(op), col,
         InternConst(literal), rest.empty() ? kNoPath : InternPath(rest));
  }

  std::vector<Instr>& code() { return chunk_->code; }

  const RowSchema& schema_;
  const Database& db_;
  BytecodeChunk* chunk_;
  const JoinSplit* split_;
  int next_v_ = 0;
  int next_b_ = 0;
};

BytecodeChunk Finish(BytecodeChunk chunk) {
  const Status s = chunk.Validate();
  RODIN_CHECK(s.ok(), "compiler emitted an invalid chunk");
  return chunk;
}

}  // namespace

BytecodeChunk CompilePredicate(const ExprPtr& pred, const RowSchema& schema,
                               const Database& db) {
  BytecodeChunk chunk;
  Compiler c(schema, db, &chunk);
  const int b = c.AllocB();
  c.EmitPred(pred, b);
  c.Emit(OpCode::kRetBool, b);
  return Finish(std::move(chunk));
}

JoinPredicate CompileJoinPredicate(const ExprPtr& pred, const RowSchema& outer,
                                   const RowSchema& inner, const Database& db) {
  JoinPredicate out;
  RowSchema joined;
  joined.cols = outer.cols;
  joined.cols.insert(joined.cols.end(), inner.cols.begin(), inner.cols.end());
  const JoinSplit split{&outer, &inner, &out};
  Compiler c(joined, db, &out.pair, &split);
  const int b = c.AllocB();
  c.EmitPred(pred, b);
  c.Emit(OpCode::kRetBool, b);
  // Every path went to a slot, so the pair program reads no column:
  // validating it against a zero-width row proves that.
  out.pair.num_cols = 0;
  out.pair = Finish(std::move(out.pair));
  out.loads_every_slot = true;
  for (const Instr& in : out.pair.code) {
    if (in.op == OpCode::kJumpIfFalse || in.op == OpCode::kJumpIfTrue) {
      out.loads_every_slot = false;
    }
  }
  const std::vector<Instr>& code = out.pair.code;
  if (code.size() == 4 && code[0].op == OpCode::kLoadSlot &&
      code[1].op == OpCode::kLoadSlot && code[0].b != code[1].b &&
      code[2].op == OpCode::kCompare &&
      static_cast<CompareOp>(code[2].d) == CompareOp::kEq &&
      code[2].b == code[0].a && code[2].c == code[1].a &&
      code[3].op == OpCode::kRetBool && code[3].a == code[2].a) {
    out.key_probe = true;
    out.key_slots[code[0].b] = code[0].d;
    out.key_slots[code[1].b] = code[1].d;
  }
  return out;
}

BytecodeChunk CompileMulti(const ExprPtr& expr, const RowSchema& schema,
                           const Database& db) {
  BytecodeChunk chunk;
  Compiler c(schema, db, &chunk);
  const int v = c.AllocV();
  c.EmitMulti(expr, v);
  c.Emit(OpCode::kRetValues, v);
  return Finish(std::move(chunk));
}

BytecodeChunk CompileProjection(const std::vector<OutCol>& proj,
                                const RowSchema& schema, const Database& db) {
  BytecodeChunk chunk;
  Compiler c(schema, db, &chunk);
  // Column k's values land in v[k]; kRetProj announces the register range.
  for (size_t k = 0; k < proj.size(); ++k) {
    const int v = c.AllocV();
    RODIN_CHECK(v == static_cast<int>(k), "projection register layout");
  }
  for (size_t k = 0; k < proj.size(); ++k) {
    c.EmitMulti(proj[k].expr, static_cast<int>(k));
  }
  c.Emit(OpCode::kRetProj, 0, 0, 0, static_cast<uint32_t>(proj.size()));
  return Finish(std::move(chunk));
}

namespace {

void AppendChunk(std::string* out, const PTNode& node, const char* what,
                 const BytecodeChunk& chunk) {
  *out += PTNodeLabel(node) + " · " + what + ":\n";
  *out += chunk.Disassemble();
}

/// Mirrors BuildOp's expression wiring: which expressions each operator
/// compiles, and against which input schema.
void DisassembleNode(const PTNode& node, const Database& db, std::string* out) {
  switch (node.kind) {
    case PTKind::kSel: {
      // IndexSel and the fused FilterScan evaluate against the node's own
      // columns; the streaming Filter evaluates against its child's.
      const bool streaming = node.sel_access == SelAccess::kSeqScan &&
                             node.children[0]->kind != PTKind::kEntity;
      RowSchema schema;
      schema.cols = streaming ? node.children[0]->cols : node.cols;
      if (node.pred != nullptr) {
        AppendChunk(out, node, "predicate",
                    CompilePredicate(node.pred, schema, db));
      }
      break;
    }
    case PTKind::kProj: {
      RowSchema in;
      in.cols = node.children[0]->cols;
      AppendChunk(out, node, "projection",
                  CompileProjection(node.proj, in, db));
      break;
    }
    case PTKind::kEJ: {
      if (node.algo == JoinAlgo::kIndexJoin) {
        ExprPtr residual;
        const ExprPtr probe =
            ExtractIndexProbe(node, node.children[1]->binding, &residual);
        RowSchema left;
        left.cols = node.children[0]->cols;
        if (probe != nullptr) {
          AppendChunk(out, node, "probe", CompileMulti(probe, left, db));
        }
        if (residual != nullptr) {
          RowSchema schema;
          schema.cols = node.cols;
          AppendChunk(out, node, "residual",
                      CompilePredicate(residual, schema, db));
        }
      } else if (node.pred != nullptr) {
        RowSchema outer, inner;
        outer.cols = node.children[0]->cols;
        inner.cols = node.children[1]->cols;
        const JoinPredicate jp =
            CompileJoinPredicate(node.pred, outer, inner, db);
        for (size_t k = 0; k < jp.outer_slots.size(); ++k) {
          AppendChunk(out, node, StrFormat("outer slot %zu", k).c_str(),
                      jp.outer_slots[k]);
        }
        for (size_t k = 0; k < jp.inner_slots.size(); ++k) {
          AppendChunk(out, node, StrFormat("inner slot %zu", k).c_str(),
                      jp.inner_slots[k]);
        }
        AppendChunk(out, node,
                    jp.key_probe
                        ? StrFormat("pair (key probe: outer slot %u = inner "
                                    "slot %u)",
                                    jp.key_slots[0], jp.key_slots[1])
                              .c_str()
                        : "pair",
                    jp.pair);
      }
      break;
    }
    default:
      break;
  }
  for (const auto& c : node.children) DisassembleNode(*c, db, out);
}

}  // namespace

std::string DisassemblePlan(const PTNode& plan, const Database& db) {
  std::string out;
  DisassembleNode(plan, db, &out);
  return out;
}

}  // namespace rodin::vm
