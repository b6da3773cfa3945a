// The tests' reference evaluator for processing trees, and the helpers that
// compare the batched engine against it.
//
// ReferenceExecutor is a plain bottom-up whole-table evaluator: every node
// materializes its full result in one recursive call, expressions are
// interpreted (EvalPred / EvalMulti below), and every navigation step looks
// its attribute up by name on each object. It charges pages straight into
// the database's buffer pool in evaluation order and keeps its own counters
// and its own fixpoint memo. It has no budget, spill, fault injection,
// op-stats, tracing or streaming.
//
// The batched engine defers its page charges and replays them in exactly
// this evaluator's order, so for any batch size, thread count and spill
// budget the engine must match it bit for bit: rows in emission order,
// every ExecCounters field, the pool's fetch/hit/miss totals and
// MeasuredCost().

#ifndef RODIN_TESTS_SUPPORT_REFERENCE_EXEC_H_
#define RODIN_TESTS_SUPPORT_REFERENCE_EXEC_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/query_context.h"
#include "cost/params.h"
#include "exec/eval_core.h"
#include "exec/executor.h"
#include "exec/row.h"
#include "plan/pt.h"
#include "query/expr.h"
#include "storage/database.h"

namespace rodin {

/// Navigates `path` from `start` by name: each step resolves its attribute
/// through the schema on the object's own class. Charges, values and
/// method counts are those of NavigateBound over the same names.
void Navigate(EvalContext* ctx, const Value& start,
              const std::vector<std::string>& path, size_t step,
              std::vector<Value>* out);

/// All instantiations of `expr` on `row` (path steps through collections fan
/// out; nulls produce nothing). Object dereferences are charged.
std::vector<Value> EvalMulti(EvalContext* ctx, const RowSchema& schema,
                             const Row& row, const ExprPtr& expr);

/// Boolean evaluation with exists-semantics over multi-valued paths.
bool EvalPred(EvalContext* ctx, const RowSchema& schema, const Row& row,
              const ExprPtr& pred);

class ReferenceExecutor {
 public:
  explicit ReferenceExecutor(Database* db, CostParams params = {});

  /// Evaluates `plan`. Counters accumulate until ResetMeasurement(); the
  /// fixpoint memo lives as long as the executor.
  Table Execute(const PTNode& plan);

  const ExecCounters& counters() const { return counters_; }

  /// misses * pr + predicate_evals * ev_tuple + method costs, since the
  /// last reset.
  double MeasuredCost() const;

  /// Zeroes the counters and the pool's statistics; optionally drops the
  /// resident pages (cold start).
  void ResetMeasurement(bool clear_buffer);

 private:
  Table Eval(const PTNode& node);
  Table EvalEntity(const PTNode& node);
  Table EvalDelta(const PTNode& node);
  Table EvalSel(const PTNode& node);
  Table EvalProj(const PTNode& node);
  Table EvalEJ(const PTNode& node);
  Table EvalIJ(const PTNode& node);
  Table EvalPIJ(const PTNode& node);
  Table EvalUnion(const PTNode& node);
  Table EvalFix(const PTNode& node);

  EvalContext Context();

  Database* db_;
  CostParams params_;
  ExecCounters counters_;
  uint64_t method_cost_fp_ = 0;
  uint64_t start_misses_ = 0;
  /// Delta tables of in-flight fixpoints, by view name, with the temp file
  /// backing each delta.
  std::map<std::string, std::pair<const Table*, TempFile>> deltas_;
  /// Memoized fixpoint results by plan fingerprint (see
  /// Executor::fix_cache_): a later occurrence charges one temp scan.
  struct FixMemo {
    Table result;
    TempFile temp;
  };
  std::map<std::string, FixMemo> fix_memo_;
};

/// Everything one cold execution produces, for exact comparison. `spills`
/// is observability only and not part of the identity.
struct ExecFingerprint {
  std::vector<std::string> rows;  // in emission order
  ExecCounters counters;
  uint64_t fetches = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  double measured_cost = 0;
  uint64_t spills = 0;
};

/// Cold run of `plan` on a fresh ReferenceExecutor.
ExecFingerprint ReferenceFingerprint(Database* db, const PTNode& plan);

/// Cold run of `plan` on a fresh Executor under `options`.
ExecFingerprint EngineFingerprint(Database* db, const PTNode& plan,
                                  const ExecOptions& options);

/// Exact equality of everything but `spills` (MeasuredCost bitwise).
void ExpectSameFingerprint(const ExecFingerprint& got,
                           const ExecFingerprint& want);

/// One lifecycle context the engine matrix runs under (null = none).
struct EngineArm {
  std::string name;
  const QueryContext* query = nullptr;
};

/// Runs `plan` on the reference, then on the engine at batch_rows
/// {1, 7, 1024} x exec_threads {1, 4} under every arm, and expects every
/// engine run to match the reference exactly. Returns, per arm, the largest
/// spill count any of its runs reported.
std::vector<uint64_t> ExpectEngineMatchesReference(
    Database* db, const PTNode& plan, const std::string& label,
    const std::vector<EngineArm>& arms = {EngineArm{}});

}  // namespace rodin

#endif  // RODIN_TESTS_SUPPORT_REFERENCE_EXEC_H_
