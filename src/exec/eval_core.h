#ifndef RODIN_EXEC_EVAL_CORE_H_
#define RODIN_EXEC_EVAL_CORE_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/row.h"
#include "plan/pt.h"
#include "query/expr.h"
#include "storage/database.h"

namespace rodin {

namespace vm {
struct VmScratch;
}  // namespace vm

/// Method costs are declared as doubles but summed in 2^-20 fixed point so
/// that the total is independent of summation grouping — worker morsels add
/// their partial sums in any association and still land on the bit pattern
/// the sequential evaluator produces.
constexpr uint64_t kMethodCostScale = 1ull << 20;

inline uint64_t MethodCostToFp(double cost) {
  return static_cast<uint64_t>(std::llround(cost * kMethodCostScale));
}

inline double MethodCostFromFp(uint64_t fp) {
  return static_cast<double>(fp) / kMethodCostScale;
}

/// Everything expression evaluation needs: the (read-only) database, where
/// to charge page accesses, and where to count CPU-side work. Each worker
/// morsel of the batched engine wires the pointers at morsel-local counters
/// and a morsel-local ChargeLog, making evaluation freely parallel — the
/// database itself is never written.
struct EvalContext {
  const Database* db = nullptr;
  PageCharger* charger = nullptr;
  uint64_t* predicate_evals = nullptr;
  uint64_t* method_calls = nullptr;
  uint64_t* method_cost_fp = nullptr;
  /// Register scratch for compiled (bytecode) evaluation, owned by the
  /// enclosing morsel.
  vm::VmScratch* vm = nullptr;
};

/// Expands a (possibly collection-valued) value into individual elements.
inline void ExpandValue(const Value& v, std::vector<Value>* out) {
  if (v.is_null()) return;
  if (v.is_collection()) {
    for (const Value& e : v.AsCollection().elems) ExpandValue(e, out);
    return;
  }
  out->push_back(v);
}

/// For an index probe predicate `cmp`, returns the literal side and whether
/// the path is on the left.
bool SplitProbe(const Expr& cmp, Value* literal, bool* path_on_left);

/// An attribute path resolved ahead of execution: for every step, the
/// attribute bound on every extent of the database (indexed by
/// Database::ExtentIndexOf). An object of any class — polymorphic extents
/// included — finds its binding with one table load, so a navigation step
/// does no name lookups.
struct BoundPath {
  std::vector<std::string> names;
  std::vector<std::vector<Database::FieldBinding>> steps;  // [step][extent]
};

/// Binds `names` against every extent of `db` (finalized).
BoundPath BindPath(const Database& db, std::vector<std::string> names);

/// Navigates `path` from `start` (charging dereferences through ctx),
/// appending every reached value to `out`. Collections fan out (depth
/// first, in element order), nulls vanish, and an atomic value with steps
/// left matches nothing. A computed attribute invokes its method and counts
/// its declared cost.
void NavigateBound(EvalContext* ctx, const Value& start, const BoundPath& path,
                   size_t step, std::vector<Value>* out);

/// Splits an index-join predicate: extracts the probe expression (the outer
/// side of the Cmp(=, inner.attr, outer) conjunct matching
/// `node.join_index_attr` on `inner_binding`) and the residual conjunction.
/// Returns null if no probe conjunct exists.
ExprPtr ExtractIndexProbe(const PTNode& node, const std::string& inner_binding,
                          ExprPtr* residual_pred);

/// Which input of a join an expression reads.
enum class JoinSide { kNone, kOuter, kInner, kBoth };

/// The one place that decides which join input an operand reads. Every
/// variable path in `e` is resolved against `joined`, the join's output
/// schema, whose first `outer_width` columns come from the outer input. A
/// literal reads neither input; a path that no column resolves counts as
/// kBoth, since neither input alone can evaluate it. Resolving an operand
/// classified to one input against that input's own schema finds the same
/// column (shifted by `outer_width` for the inner), so the operand can be
/// compiled and evaluated against that input's rows alone.
JoinSide OperandSide(const Expr& e, const RowSchema& joined,
                     size_t outer_width);

/// True when `tree` contains a delta leaf of a fixpoint other than `own` —
/// such a subtree's value depends on the enclosing fixpoint's iteration
/// state and must not be memoized.
bool HasForeignDelta(const PTNode& tree, const std::string& own);

}  // namespace rodin

#endif  // RODIN_EXEC_EVAL_CORE_H_
