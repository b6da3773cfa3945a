#ifndef RODIN_API_PLAN_CACHE_H_
#define RODIN_API_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cost/params.h"
#include "obs/decision.h"
#include "optimizer/optimizer.h"
#include "plan/pt.h"
#include "storage/database.h"

namespace rodin {

/// One cached optimization outcome: everything Session needs to skip the
/// rewrite -> translate -> generatePT -> transformPT pipeline on a repeat of
/// the same query. The plan inside is a *master copy* — the cache clones it
/// out on every hit, so a cached plan is never shared mutably between runs
/// (execution never mutates a PT, but QueryRun/cursor keepalives own their
/// plan, so each run gets its own tree).
struct PlanCacheEntry {
  PTPtr plan;
  double cost = 0;
  size_t plans_explored = 0;
  std::vector<StageReport> stages;  // the original optimization's reports
  DecisionLog decisions;            // replayed into hits' decision logs

  // transformPT outcome, mirrored from OptimizeResult.
  bool pushed_sel = false;
  bool pushed_join = false;
  bool pushed_proj = false;
  double pushed_variant_cost = -1;
  double unpushed_variant_cost = -1;

  /// Session's stats version at insert time. A lookup under a newer version
  /// drops the entry (RefreshStats invalidation).
  uint64_t stats_version = 0;
};

/// Counters mirroring the rodin.plan_cache.* metrics, readable per cache
/// instance (the metrics registry is process-global; tests want per-cache
/// figures).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;      // capacity evictions (LRU)
  uint64_t invalidations = 0;  // stats-version mismatches dropped at lookup
  uint64_t demotions = 0;      // entries erased for measured-cost drift
};

/// A bounded LRU cache of optimized plans keyed by a canonical fingerprint
/// (see PlanFingerprint below). Thread-safe: sessions may share one cache —
/// the intended sharing unit is "sessions over the same database", but the
/// fingerprint carries the physical-schema identity, so even sessions over
/// *different* databases can share an instance without ever exchanging a
/// plan (they simply occupy separate entries).
///
/// Correctness rules enforced by the caller (Session):
///   - entries are only inserted for complete optimizations (no
///     StageReport::truncated anywhere, no fault injector active);
///   - a lookup passes the session's current stats version; entries written
///     under an older version are invalidated (dropped), never served;
///   - cached plans still run under the caller's QueryContext — the cache
///     short-circuits *planning*, never execution-time budgets.
class PlanCache {
 public:
  static constexpr size_t kDefaultCapacity = 64;

  explicit PlanCache(size_t capacity = kDefaultCapacity);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Looks up `key` under `stats_version`. On a hit, fills `*out` with a
  /// deep copy (cloned plan) and returns true. An entry recorded under a
  /// different stats version is erased (counted as an invalidation) and the
  /// lookup reports a miss.
  bool Lookup(const std::string& key, uint64_t stats_version,
              PlanCacheEntry* out);

  /// Inserts (or replaces) the entry for `key`, evicting the least recently
  /// used entry when over capacity. A capacity of 0 disables insertion.
  void Insert(const std::string& key, PlanCacheEntry entry);

  /// Drops the entry for `key` if present (a feedback drift demotion: the
  /// plan's measured cost strayed too far from its estimate, so the next
  /// acquisition re-optimizes — see cost/feedback.h). Counted as a demotion,
  /// not an invalidation. Returns whether an entry was erased.
  bool Erase(const std::string& key);

  /// Drops every entry (counted as invalidations).
  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  PlanCacheStats stats() const;

 private:
  /// Deep copy helper (PTPtr is move-only; entries clone through this).
  static PlanCacheEntry CopyEntry(const PlanCacheEntry& e);

  mutable std::mutex mu_;
  size_t capacity_;
  PlanCacheStats stats_;
  /// MRU-first recency list; the map stores the payload plus its position.
  std::list<std::string> lru_;
  std::map<std::string, std::pair<PlanCacheEntry, std::list<std::string>::iterator>>
      entries_;
};

/// The canonical fingerprint of one (query, environment) pair — equal
/// fingerprints guarantee the optimizer would produce the identical plan:
///   - the normalized query-graph rendering (predicate nodes, predicates,
///     projections, answer name);
///   - the physical-schema identity (extent layout, fragmentation,
///     clustering, indexes, buffer capacity, per-extent page/instance
///     counts — see PhysicalIdentity);
///   - every CostParams field;
///   - the optimizer-relevant knobs: seed, search_threads, gen strategy,
///     fold_views, naive_fixpoint and all TransformOptions fields.
/// Lifecycle knobs (deadline / cancel / memory budget) and executor knobs
/// (batch_rows / exec_threads / hash_equijoin) are deliberately excluded:
/// they never change the chosen plan, only how (long) it runs.
///
/// `graph_digest` lets PreparedQuery amortize the graph rendering; pass
/// null to derive it from `graph`.
std::string PlanFingerprint(const QueryGraph& graph, const Database& db,
                            const CostParams& cost_params,
                            const OptimizerOptions& options,
                            const std::string* graph_digest = nullptr);

/// Assembles the fingerprint from precomputed components (Session caches
/// the physical identity per RefreshStats, PreparedQuery the graph digest).
/// PlanFingerprint is this plus the component derivations.
std::string ComposeFingerprint(const std::string& graph_digest,
                               const std::string& physical_identity,
                               const CostParams& cost_params,
                               const OptimizerOptions& options);

/// The query-graph component of the fingerprint (canonical rendering).
std::string GraphDigest(const QueryGraph& graph);

/// The physical-schema component of the fingerprint: a content summary of
/// the database's layout (schema extents, PhysicalConfig, per-extent pages/
/// instances). Two databases with the same summary present the same search
/// space and statistics inputs to the optimizer.
std::string PhysicalIdentity(const Database& db);

/// RODIN_PLAN_CACHE environment knob: unset / "1" / "on" = enabled (the
/// default), "0" / "off" = every session bypasses its plan cache. Read once
/// per process.
bool PlanCacheEnabledByEnv();

}  // namespace rodin

#endif  // RODIN_API_PLAN_CACHE_H_
