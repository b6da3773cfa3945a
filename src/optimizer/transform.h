#ifndef RODIN_OPTIMIZER_TRANSFORM_H_
#define RODIN_OPTIMIZER_TRANSFORM_H_

#include <string>
#include <vector>

#include "optimizer/context.h"
#include "optimizer/rule.h"
#include "plan/pt.h"

namespace rodin {

/// Options controlling transformPT (paper §4.5).
struct TransformOptions {
  /// Baselines: `always_push` mimics the deductive heuristic (irrevocable
  /// push, no comparison); `never_push` skips pushing entirely.
  bool always_push = false;
  bool never_push = false;

  RandStrategy rand = RandStrategy::kIterativeImprovement;
  size_t rand_moves = 300;      // move attempts per start
  size_t rand_local_stop = 30;  // consecutive rejects ending a start
  size_t rand_restarts = 2;
};

/// Result of transformPT with instrumentation.
struct TransformResult {
  PTPtr plan;
  double cost = 0;
  bool pushed_sel = false;
  bool pushed_join = false;
  bool pushed_proj = false;
  size_t push_applications = 0;
  size_t moves_tried = 0;
  size_t moves_accepted = 0;
  double pushed_variant_cost = -1;    // cost of the fully pushed alternative
  double unpushed_variant_cost = -1;  // cost of the never-pushed alternative
  /// The deadline / cancel tripped mid-search: `plan` is the best costed
  /// alternative found up to that point (anytime), not the saturated result.
  bool truncated = false;
};

/// transformPT: generates the fully *pushed* alternative of `plan` by
/// saturating the push actions (filter for selections, the analogous join
/// action, and projection pushing), re-optimizes both alternatives with the
/// randomized strategy, and keeps the cheaper — the paper's delayed,
/// cost-controlled decision. `plan` must be annotated.
///
/// transformPT is *anytime*: it polls ctx.query per push-saturation pass and
/// per local-search move; on deadline/cancel it stops searching and returns
/// the best costed plan found so far with `truncated` set, never an error.
/// `search_threads` is the restart-level parallelism of the randomized
/// search (canonical knob: OptimizerOptions::search_threads).
/// `force_truncate` makes the call behave as if the budget were already
/// tripped on entry (used when a deadline fires exactly at the stage-4
/// boundary): both alternatives are costed and compared, but no saturation
/// pass or randomized search runs.
TransformResult TransformPT(PTPtr plan, OptContext& ctx,
                            const TransformOptions& options,
                            size_t search_threads = 1,
                            bool force_truncate = false);

// --- Individual push actions (exposed for tests and benches) ---------------

/// The paper's `filter` action: pushes one selection (with the implicit-join
/// steps supporting it) through a fixpoint, into both the base and the
/// recursive arm. Returns true if some site matched and was rewritten.
bool PushSelThroughFix(PTPtr& root, OptContext& ctx);

/// Pushes one explicit join (with its non-recursive side) through a
/// fixpoint as a filtering semijoin on both arms (§4.5).
bool PushJoinThroughFix(PTPtr& root, OptContext& ctx);

/// Pushes one single-attribute projection step (an IJ used only to read one
/// atomic attribute) through a fixpoint by extending the view's columns.
bool PushProjThroughFix(PTPtr& root, OptContext& ctx);

/// The `collapse` action (§4.3) as a standalone rule: rewrites a chain of
/// IJ nodes matching a path index into one PIJ node. Returns applications.
size_t CollapseIJChains(PTPtr& root, OptContext& ctx);

/// Rebuilds a unary node (Sel / IJ / PIJ / Proj) of the same shape as
/// `proto` on a new child. Shared by the push actions and the local moves.
PTPtr ReRootUnary(const PTNode& proto, PTPtr child);

}  // namespace rodin

#endif  // RODIN_OPTIMIZER_TRANSFORM_H_
