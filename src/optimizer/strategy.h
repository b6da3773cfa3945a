#ifndef RODIN_OPTIMIZER_STRATEGY_H_
#define RODIN_OPTIMIZER_STRATEGY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/decision.h"
#include "optimizer/context.h"
#include "optimizer/rule.h"
#include "optimizer/transform.h"
#include "plan/pt.h"

namespace rodin {

class ThreadPool;

/// Instrumentation of one restart of the parallel search. Everything here
/// depends only on (seed, restart index) — never on the worker that ran the
/// restart or on completion order — so two runs with different thread
/// counts produce element-wise identical vectors of these.
struct RestartReport {
  size_t tried = 0;
  size_t accepted = 0;
  size_t plans_explored = 0;
  double start_cost = 0;   // after the restart's perturbation
  double final_cost = 0;   // best cost the restart reached
  /// Order-sensitive FNV-1a digest of the restart's move stream (each
  /// applied move's name plus its accept/reject outcome). Equal digests
  /// across thread counts prove the searches explored the same moves.
  uint64_t move_digest = 0;
  /// The full move stream, recorded only when the caller's context has
  /// collect_decisions set. Workers append here (their restart's slot) so
  /// the shared DecisionLog is never written concurrently; the strategy
  /// merges the slots in restart order after the pool drains.
  std::vector<MoveDecision> moves;
  /// This restart's move loop stopped early on deadline / cancel.
  bool truncated = false;
};

/// Aggregate result of one ParallelStrategy::Improve call.
struct ParallelSearchReport {
  size_t threads = 1;
  size_t restarts = 0;
  size_t tried = 0;
  size_t accepted = 0;
  size_t plans_explored = 0;
  double initial_cost = 0;
  double final_cost = 0;
  /// Restart that produced the adopted plan (0 when the input plan won).
  size_t best_restart = 0;
  /// Some restart stopped early on deadline / cancel. The adopted plan is
  /// still the best of what *was* explored (anytime). A run whose budget
  /// never trips sets no flag and is move-for-move identical to an
  /// unbudgeted run — truncation is observable, not ambient.
  bool truncated = false;
  std::vector<RestartReport> per_restart;
};

/// The local move set of the randomized strategies (paper §4.5): join
/// commutativity, join-algorithm and access-method toggles, the collapse /
/// expand pair for path indices, and selection up/down shifts. Each move is
/// a Rule that rewrites exactly one matching site.
const std::vector<Rule>& LocalMoves();

/// Randomized re-optimization (paper §4.5, [IC90]): Iterative Improvement
/// or Simulated Annealing over the LocalMoves() neighbourhood, with
/// restarts. It is the one randomized search: transformPT runs it on both
/// push alternatives and generatePT's kRandomized strategy on its greedy
/// start, the latter with one thread.
///
/// The restarts are independent searches from perturbed copies of the start
/// plan — embarrassingly parallel — so they fan out across a worker pool
/// and merge into a mutex-guarded best-plan accumulator (cost is compared
/// against a relaxed atomic hint *before* the lock, keeping contention off
/// the hot path).
///
/// Determinism: each restart draws from its own SplitMix64-derived RNG
/// stream (Rng::Stream(base, restart)), results merge by (cost, restart
/// index), and counters aggregate by restart slot. The chosen plan and the
/// full report are therefore identical for a given seed across *any* worker
/// count — a 1-thread and an 8-thread search explore the same move stream
/// per restart.
class ParallelStrategy {
 public:
  /// `threads` <= 1 runs the restarts inline on the calling thread (same
  /// code path, same results).
  explicit ParallelStrategy(size_t threads);
  ~ParallelStrategy();

  ParallelStrategy(const ParallelStrategy&) = delete;
  ParallelStrategy& operator=(const ParallelStrategy&) = delete;

  size_t threads() const { return threads_; }

  /// Improves `plan` in place (annotated); consumes one value of ctx.rng
  /// to derive the restart streams and adds the explored-plan total to
  /// ctx.plans_explored.
  ParallelSearchReport Improve(PTPtr& plan, OptContext& ctx,
                               const TransformOptions& options);

 private:
  size_t threads_;
  std::unique_ptr<ThreadPool> pool_;  // null when threads_ <= 1
};

}  // namespace rodin

#endif  // RODIN_OPTIMIZER_STRATEGY_H_
