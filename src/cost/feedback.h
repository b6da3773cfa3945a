#ifndef RODIN_COST_FEEDBACK_H_
#define RODIN_COST_FEEDBACK_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "plan/pt.h"

namespace rodin {

/// Adaptive cost feedback (ROADMAP item 4b): completed runs report their
/// per-operator measured cardinalities; the registry turns them into bounded
/// per-scope correction factors the cost model multiplies into its estimates
/// on the next optimization. Plans therefore get costed against observed
/// reality instead of the static statistics alone — without ever changing
/// results, only plans (the factors scale selectivities/fan-outs, never what
/// the executor does).

/// One row of the flattened est-vs-measured plan table: the structured form
/// of EXPLAIN's annotated tree (`ExplainResult::node_stats()`), and the one
/// surface the feedback harvester consumes — external clients and the
/// registry read the same data instead of parsing plan text.
struct PlanNodeStats {
  std::string op;     // operator description (PTNodeLabel)
  std::string scope;  // correction scope (FeedbackScopeKey; "" = none)
  /// Index of the parent row in the flattened (preorder) vector; -1 for the
  /// root. Children of row i are exactly the rows with parent == i.
  int parent = -1;
  double est_rows = -1;  // cost model estimates (valid when >= 0)
  double est_cost = -1;
  bool executed = false;  // measured fields valid only when set
  uint64_t measured_rows = 0;   // summed over invocations (see OpStats)
  uint64_t measured_pages = 0;
  double measured_micros = 0;
  uint64_t invocations = 0;
};

/// Flattens `plan` (preorder, parent-linked) and joins each node against the
/// executor's per-operator profile. Nodes the run never evaluated keep
/// executed == false; pass an empty map for an explain-only run.
std::vector<PlanNodeStats> FlattenPlanStats(
    const PTNode& plan, const std::map<const PTNode*, OpStats>& op_stats);

/// The correction scope of one plan node — the identity under which its
/// estimation error generalizes across plans:
///   kEntity -> "extent:<name>"           kSel -> "sel:<source>:<predicate>"
///   kEJ     -> "join:<predicate>"        kIJ  -> "path:<class>.<attr>"
///   kPIJ    -> "path:<root>.<path>"      kFix -> "fix:<view name>"
///   kProj (dedup only) -> "dedup:<output columns>" — the survival rate of
///   duplicate elimination, which the static model cannot see at all.
/// Plain projections, unions and deltas carry no correctable estimate ("").
/// The cost model and the harvester both call this, so a factor learned from
/// one plan applies to every plan sharing the scope.
std::string FeedbackScopeKey(const PTNode& node);

/// An immutable snapshot of correction factors, keyed by scope. Ordered so a
/// snapshot is deterministic; the cost model holds one by pointer for the
/// duration of an optimization (shared read-only across search threads).
class FeedbackCorrections {
 public:
  /// The multiplicative correction for `scope` (1.0 when unobserved).
  double Factor(const std::string& scope) const {
    auto it = factors_.find(scope);
    return it == factors_.end() ? 1.0 : it->second;
  }
  bool empty() const { return factors_.empty(); }
  size_t size() const { return factors_.size(); }
  const std::map<std::string, double>& factors() const { return factors_; }

 private:
  friend class FeedbackRegistry;
  std::map<std::string, double> factors_;
};

/// Counters mirroring the rodin.feedback.* metrics, readable per registry
/// instance (the metrics registry is process-global; tests want per-registry
/// figures).
struct FeedbackStats {
  uint64_t observations = 0;   // measured node ratios accepted by Harvest
  uint64_t corrections = 0;    // factors created or updated
  uint64_t demotions = 0;      // plan-cache entries demoted for cost drift
  uint64_t stale_dropped = 0;  // harvests dropped for a stats-version mismatch
};

/// Default drift threshold: a cached plan whose measured cost is >= 3x off
/// its estimate (either direction) is demoted and re-optimized on next
/// acquisition. QueryOptions::feedback.drift_threshold overrides per run.
constexpr double kDefaultDriftThreshold = 3.0;
/// Default EWMA smoothing for correction updates (see Harvest).
constexpr double kDefaultFeedbackAlpha = 0.5;

/// The engine-wide feedback state, owned by EngineHandle and shared across
/// its sessions exactly like the plan cache (sessions constructed without
/// one get a private registry). Thread-safe; all methods lock.
///
/// Stats-versioned: every harvest and snapshot carries the session's
/// engine-wide stats version. A commit or EngineHandle::RefreshStats bumps that version,
/// which atomically retires every factor and demotion note learned under the
/// old statistics — corrections describe estimation error *relative to* a
/// statistics snapshot, so they must die with it.
class FeedbackRegistry {
 public:
  /// Correction factors are clamped to [kMinFactor, kMaxFactor]: feedback
  /// nudges the cost model, it must never be able to zero out or explode an
  /// estimate from one aberrant run.
  static constexpr double kMinFactor = 1.0 / 8.0;
  static constexpr double kMaxFactor = 8.0;
  /// A single observed ratio is clamped harder than the factor it feeds, so
  /// one outlier run moves a factor by at most a bounded step.
  static constexpr double kMinObservedRatio = 1.0 / 64.0;
  static constexpr double kMaxObservedRatio = 64.0;
  /// Bounded state: new scopes beyond the cap are dropped (existing scopes
  /// keep updating), and demotion notes are a small FIFO-capped set.
  static constexpr size_t kMaxScopes = 4096;
  static constexpr size_t kMaxDemotionNotes = 256;

  FeedbackRegistry() = default;
  FeedbackRegistry(const FeedbackRegistry&) = delete;
  FeedbackRegistry& operator=(const FeedbackRegistry&) = delete;

  /// Folds one completed run's measured cardinalities into the correction
  /// factors. For each node with a scope, the *local* cardinality ratio —
  /// measured output per input over estimated output per input, so a
  /// parent's error is not double-charged to its children — updates the
  /// scope's factor as an EWMA residual:
  ///
  ///   f' = clamp(f * (alpha * ratio + (1 - alpha)))
  ///
  /// (the observed ratio is relative to estimates that already included f,
  /// so the update is multiplicative; a converged factor sees ratio ~= 1 and
  /// stays put). `stats_version` guards freshness: an older version drops
  /// the whole harvest, a newer one clears the registry first. Returns the
  /// number of observations accepted. Callers must not feed failed,
  /// truncated or cancelled runs (Session enforces this).
  size_t Harvest(const std::vector<PlanNodeStats>& nodes,
                 uint64_t stats_version, double alpha);

  /// The current factors, iff they were learned under `stats_version`
  /// (empty otherwise — never serve corrections across a stats refresh).
  FeedbackCorrections Snapshot(uint64_t stats_version) const;

  /// Records that the plan cached under `fingerprint` was demoted because
  /// its measured cost drifted `drift`x from its estimate. The next
  /// optimization of that fingerprint collects the note via
  /// TakeDemotionNote and surfaces "[plan: re-optimized (drift N.Nx)]".
  void NoteDemotion(const std::string& fingerprint, double drift);

  /// Retrieves and clears the demotion note for `fingerprint`; returns the
  /// drift ratio, or 0 when there is none.
  double TakeDemotionNote(const std::string& fingerprint);

  FeedbackStats stats() const;
  size_t size() const;

  /// Drops every factor and demotion note (version is kept).
  void Clear();

 private:
  mutable std::mutex mu_;
  uint64_t stats_version_ = 0;
  std::map<std::string, double> factors_;
  std::map<std::string, double> demotions_;
  FeedbackStats stats_;
};

}  // namespace rodin

#endif  // RODIN_COST_FEEDBACK_H_
