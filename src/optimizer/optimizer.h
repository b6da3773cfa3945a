#ifndef RODIN_OPTIMIZER_OPTIMIZER_H_
#define RODIN_OPTIMIZER_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "optimizer/context.h"
#include "optimizer/generate.h"
#include "optimizer/rewrite.h"
#include "optimizer/transform.h"
#include "query/query_graph.h"

namespace rodin {

namespace obs {
class Tracer;
}  // namespace obs
struct DecisionLog;

/// Optional observability sinks for one Optimize() call: a span tracer
/// (stage/push/search spans, Chrome trace_event export) and a structured
/// decision log (every transformPT shift and push decision with the costed
/// alternatives). Null members record nothing at near-zero cost.
struct ObsSink {
  obs::Tracer* tracer = nullptr;
  DecisionLog* decisions = nullptr;
};

/// Configuration of the full optimizer pipeline. The generative and
/// randomized strategies are independent knobs — the extensibility claim of
/// the paper ([LV91]): the search space (rules, moves) is fixed; strategies
/// controlling it are swappable.
struct OptimizerOptions {
  GenStrategy gen_strategy = GenStrategy::kDP;
  TransformOptions transform;
  bool fold_views = false;
  /// Evaluate fixpoints naively instead of semi-naively (ablation only;
  /// Figure 5's Fix formula assumes semi-naive).
  bool naive_fixpoint = false;
  uint64_t seed = 1;
  /// Worker threads for the randomized transformPT search (restart-level
  /// parallelism, see ParallelStrategy). This is the *only* definition of
  /// the knob (TransformOptions no longer carries a copy); QueryOptions may
  /// override it per run — precedence is documented on QueryOptions. The
  /// chosen plan is deterministic for a given (seed, search_threads) — and
  /// identical across thread counts, since restarts use index-derived RNG
  /// streams.
  size_t search_threads = 1;
  /// The run's lifecycle budget, referenced (not copied) from the
  /// QueryOptions' QueryContext. Null = unbounded. Stages 1-3 abort with
  /// kDeadlineExceeded / kCancelled when tripped; transformPT instead
  /// truncates and keeps its best-so-far plan (anytime).
  const QueryContext* query = nullptr;
};

/// Result of optimizing one query graph.
struct OptimizeResult {
  PTPtr plan;
  double cost = 0;
  /// Typed outcome; on failure the plan is null and status.code says why
  /// (kOptimize, or kDeadlineExceeded / kCancelled when the budget tripped
  /// before transformPT could produce an anytime plan).
  Status status;

  size_t plans_explored = 0;
  std::vector<StageReport> stages;  // rewrite/translate/generatePT/transformPT

  // transformPT outcome (the paper's delayed push decision).
  bool pushed_sel = false;
  bool pushed_join = false;
  bool pushed_proj = false;
  double pushed_variant_cost = -1;
  double unpushed_variant_cost = -1;

  bool ok() const { return status.ok(); }
};

/// The optimizer of §4.1:
///
///   optimize(Q) { rewrite(Q);
///                 for each arc: translate;
///                 for each predicate node (bottom-up): generatePT;
///                 repeat transformPT until saturation; }
///
/// Pushing selective operations through recursion is *delayed* until a
/// costed PT exists, then decided by comparing the costed alternatives.
class Optimizer {
 public:
  Optimizer(Database* db, const Stats* stats, const CostModel* cost,
            OptimizerOptions options = {});

  OptimizeResult Optimize(const QueryGraph& query);

  /// As above, recording spans and decision events into `hooks`.
  OptimizeResult Optimize(const QueryGraph& query, const ObsSink& hooks);

  const OptimizerOptions& options() const { return options_; }

 private:
  Database* db_;
  const Stats* stats_;
  const CostModel* cost_;
  OptimizerOptions options_;
};

/// Estimates the semi-naive iteration count of a recursive rule from chain
/// statistics: if the rule joins the delta with a class whose join attribute
/// forms self-reference chains, the chain depth bounds the iterations.
double EstimateFixIters(const NormalizedSPJ& rec, const std::string& delta_var,
                        const Stats& stats);

}  // namespace rodin

#endif  // RODIN_OPTIMIZER_OPTIMIZER_H_
