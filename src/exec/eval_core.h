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
/// to charge page accesses, and where to count CPU-side work. The legacy
/// evaluator wires the pointers at the Executor's members and buffer pool;
/// each worker morsel of the batched engine wires them at morsel-local
/// counters and a morsel-local ChargeLog, making evaluation freely
/// parallel — the database itself is never written.
struct EvalContext {
  const Database* db = nullptr;
  PageCharger* charger = nullptr;
  uint64_t* predicate_evals = nullptr;
  uint64_t* method_calls = nullptr;
  uint64_t* method_cost_fp = nullptr;
  /// Register scratch for compiled (bytecode) evaluation, owned by the
  /// enclosing morsel; null in the legacy evaluator, which interprets.
  vm::VmScratch* vm = nullptr;
};

/// Comparison with the Value total order.
bool CompareValues(CompareOp op, const Value& a, const Value& b);

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

/// Navigates `path` from `start` (charging dereferences through ctx),
/// appending every reached value to `out`. Computed attributes invoke their
/// method and count its declared cost. Resolves each step by name per
/// object: the interpreter's form (see BoundPath for the compiled one).
void Navigate(EvalContext* ctx, const Value& start,
              const std::vector<std::string>& path, size_t step,
              std::vector<Value>* out);

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

/// Navigate over a bound path: the same values, page charges (in the same
/// order) and method counts as Navigate over `path.names`.
void NavigateBound(EvalContext* ctx, const Value& start, const BoundPath& path,
                   size_t step, std::vector<Value>* out);

/// All instantiations of `expr` on `row` (path steps through collections fan
/// out; nulls produce nothing). Object dereferences are charged.
std::vector<Value> EvalMulti(EvalContext* ctx, const RowSchema& schema,
                             const Row& row, const ExprPtr& expr);

/// Boolean evaluation with exists-semantics over multi-valued paths.
bool EvalPred(EvalContext* ctx, const RowSchema& schema, const Row& row,
              const ExprPtr& pred);

/// Splits an index-join predicate: extracts the probe expression (the outer
/// side of the Cmp(=, inner.attr, outer) conjunct matching
/// `node.join_index_attr` on `inner_binding`) and the residual conjunction.
/// Returns null if no probe conjunct exists.
ExprPtr ExtractIndexProbe(const PTNode& node, const std::string& inner_binding,
                          ExprPtr* residual_pred);

/// True when `tree` contains a delta leaf of a fixpoint other than `own` —
/// such a subtree's value depends on the enclosing fixpoint's iteration
/// state and must not be memoized.
bool HasForeignDelta(const PTNode& tree, const std::string& own);

}  // namespace rodin

#endif  // RODIN_EXEC_EVAL_CORE_H_
