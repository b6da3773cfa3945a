#ifndef RODIN_COST_PARAMS_H_
#define RODIN_COST_PARAMS_H_

#include <cstddef>

namespace rodin {

/// Unit costs of the basic operations (paper §3.2). The total cost of a plan
/// is I/O plus CPU: page reads weighted by `pr`, per-tuple predicate
/// evaluations weighted by `ev_tuple`, and method invocations weighted by
/// the attribute's declared method_cost times `method_weight`.
///
/// The paper states eval_cost per *page* (`ev`); the executor naturally
/// counts per-tuple evaluations, so the model here uses a per-tuple weight.
/// The symbolic Figure-7 reproduction (cost/symbolic.h) keeps the paper's
/// per-page form verbatim.
struct CostParams {
  double pr = 1.0;          // one page read
  double ev_tuple = 0.02;   // one predicate evaluation on one tuple
  double method_weight = 0.02;  // scales Attribute::method_cost per call

  /// Degree of intra-operator parallelism for COST ESTIMATION ONLY (the
  /// paper's conclusion notes the DBS3 cost model "takes parallelism into
  /// consideration"; the executor here stays serial). Bracket model: each
  /// operator's own work divides across `parallel_degree` workers, every
  /// operator pays a fixed startup cost per worker (kParallelOverhead in
  /// cost_model.cc), and fixpoint iterations remain sequential barriers.
  unsigned parallel_degree = 1;

  /// Spill costing: when the query's memory budget (QueryContext::
  /// memory_budget_pages, the temp-page ledger bound) is known at planning
  /// time, a materialized working set larger than the budget pays an extra
  /// kSpillReadWrite * pr per page (cost_model.cc) — the write-out plus
  /// read-back of the spill machinery — steering the optimizer toward plans
  /// whose temps stay in memory. The page I/O the plan is measured by is
  /// the same either way. A zero budget (the default) adds nothing, so
  /// estimates for unbudgeted queries are unchanged.
  size_t memory_budget_pages = 0;
};

}  // namespace rodin

#endif  // RODIN_COST_PARAMS_H_
