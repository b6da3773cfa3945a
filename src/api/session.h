#ifndef RODIN_API_SESSION_H_
#define RODIN_API_SESSION_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/plan_cache.h"
#include "api/query_options.h"
#include "common/query_context.h"
#include "common/status.h"
#include "cost/cost_model.h"
#include "cost/feedback.h"
#include "cost/stats.h"
#include "exec/executor.h"
#include "exec/result_cursor.h"
#include "obs/decision.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "query/query_graph.h"
#include "storage/database.h"
#include "txn/materialized_fix.h"
#include "txn/mutation.h"
#include "txn/txn_manager.h"

namespace rodin {

class Session;

// The per-call knob surface (QueryOptions) lives in api/query_options.h —
// one documented facade with a single inherit/override rule, shared by the
// session entry points, the CLI and the server's wire requests. The mutation
// types (MutationBatch and the typed MutationResult / CommitResult) live in
// txn/mutation.h.

/// Everything one query run produces: the optimizer's decision trail, the
/// chosen plan (printable), and the executed answer with measured cost.
struct QueryRun {
  Status status;

  QueryGraph graph;
  OptimizeResult optimized;
  std::string plan_text;  // PrintPT of the chosen plan

  Table answer;
  double measured_cost = -1;  // -1 when not executed
  ExecCounters counters;

  /// The plan came from the session's plan cache: the optimizer pipeline
  /// did not run (optimized.stages replays the original optimization's
  /// reports; a trace collected on this run has no stage spans).
  bool plan_cached = false;

  /// > 0 when this run re-optimized a plan the feedback loop had demoted
  /// for cost drift: the previous cached plan's measured cost was this many
  /// times off its estimate (see cost/feedback.h). 0 otherwise.
  double reoptimized_drift = 0;

  /// Span trace of the run (optimizer stages, push/search spans, execution).
  /// Null unless QueryOptions::collect_trace was set.
  std::shared_ptr<const obs::Trace> trace;
  /// transformPT decision events (moves, pushes). Always collected — the
  /// log is a few hundred small records per query, noise next to planning.
  DecisionLog decisions;

  bool ok() const { return status.ok(); }
  const std::string& error() const { return status.message; }
};

/// One node of ExplainResult's plan tree: the cost model's view next to what
/// execution actually did.
struct ExplainNode {
  std::string label;      // operator description (PTNodeLabel)
  double est_cost = -1;   // cost-model estimate (cumulative, Figure 5)
  double est_rows = -1;
  bool executed = false;  // measured fields valid only when set
  OpStats measured;       // inclusive of children (see OpStats)
  std::vector<ExplainNode> children;
};

/// What EXPLAIN returns: per-stage reports, the full decision log, and the
/// plan with estimated vs (optionally) measured per-node figures.
struct ExplainResult {
  Status status;

  std::vector<StageReport> stages;  // rewrite/translate/generatePT/transformPT
  DecisionLog decisions;
  ExplainNode plan;       // valid when status.ok()
  std::string plan_text;  // PrintPT rendering

  double est_cost = -1;       // cost model's total for the chosen plan
  double measured_cost = -1;  // -1 when explain_only
  ExecCounters counters;      // zero when explain_only

  // transformPT outcome, copied from OptimizeResult for convenience.
  double pushed_variant_cost = -1;
  double unpushed_variant_cost = -1;
  bool chose_push = false;

  /// Plan served from the plan cache (ToString renders "[plan: cached]";
  /// stages/decisions replay the original optimization's).
  bool plan_cached = false;

  /// > 0 when this run re-optimized a drift-demoted plan (ToString renders
  /// "[plan: re-optimized (drift N.Nx)]"); see QueryRun::reoptimized_drift.
  double reoptimized_drift = 0;

  /// Per-operator bytecode disassembly (see src/exec/vm/), one section per
  /// operator expression in the chosen plan; ToString appends it after the
  /// plan tree.
  std::string vm_disassembly;

  std::shared_ptr<const obs::Trace> trace;  // set when collect_trace

  bool ok() const { return status.ok(); }

  /// The est-vs-measured plan table as structured data: one row per plan
  /// node in preorder, parent-linked (see PlanNodeStats). This is the same
  /// surface the feedback harvester consumes — clients that want the
  /// numbers read this instead of parsing the ToString() tree. Rows carry
  /// estimates even under explain_only (measured fields stay unset).
  const std::vector<PlanNodeStats>& node_stats() const { return node_stats_; }

  /// Human-readable report: stage table, decision log, annotated plan tree.
  std::string ToString() const;

 private:
  friend class Session;
  std::vector<PlanNodeStats> node_stats_;
};

/// A parsed-and-validated query bound to its Session, with the cache
/// fingerprint's graph component precomputed. Repeat executions skip the
/// parser *and* (on a plan-cache hit) the whole optimizer pipeline:
///
///   PreparedQuery pq = session.Prepare(text);
///   for (...) { QueryRun r = pq.Run(opts); ... }
///
/// Check ok() after Prepare: a parse failure yields a PreparedQuery whose
/// Run/Explain/Query return the parse status. The session must outlive the
/// handle. Copyable (a handle is a graph plus a digest string).
class PreparedQuery {
 public:
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  const QueryGraph& graph() const { return graph_; }

  QueryRun Run(const QueryOptions& options = {});
  ExplainResult Explain(const QueryOptions& options = {});
  ResultCursor Query(const QueryOptions& options = {});

 private:
  friend class Session;
  PreparedQuery(Session* session, Status status, QueryGraph graph);

  Session* session_;
  Status status_;
  QueryGraph graph_;
  std::string digest_;  // GraphDigest(graph_), amortized across runs
};

/// Facade over the full pipeline for library users: owns the statistics,
/// cost model, optimizer and executor for one (finalized) database.
///
///   Session session(db);
///   QueryRun run = session.Run(R"(select [n: x.name] from x in Composer
///                                 where x.name = "Bach")");
///   ExplainResult ex = session.Explain(text, {.collect_trace = true});
///   ResultCursor cur = session.Query(text, {.exec_threads = 4});
///
/// The database must outlive the session. Statistics are derived at
/// construction and re-derived lazily whenever the engine-wide stats version
/// (TxnManager) has moved — every committed mutation bumps it, so cost
/// estimates track the data without any manual refresh call. All sessions
/// over one database share one derivation per version.
///
/// Mutation: Begin/Apply/Commit (or the one-shot Mutate) stage a
/// MutationBatch on the database's single-writer TxnManager and commit it
/// atomically; Materialize registers a named transitive-closure view that
/// commits maintain incrementally. See txn/txn_manager.h for the
/// concurrency contract (readers drain, live streaming cursors make Commit
/// refuse with kConflict).
///
/// Set `opts.search_threads` (OptimizerOptions) or QueryOptions::search_threads
/// to fan the randomized transformPT search across a worker pool; answers
/// and chosen plans stay deterministic under the seed for any thread count.
///
/// Lifecycle: QueryOptions::query bounds a run by deadline, cancel token and
/// memory budget (see QueryContext and docs/ROBUSTNESS.md). A tripped
/// budget fails the run with its typed status; nothing is retried inside
/// the session — retrying a retryable status is the caller's decision.
///
/// Plan cache: repeat optimizations of the same (query, physical schema,
/// cost params, optimizer knobs) fingerprint are served from `plan_cache`
/// — the optimizer pipeline is skipped entirely and the cached plan goes
/// straight to execution (still under the caller's QueryContext). Pass a
/// shared PlanCache to share across sessions; by default each session owns
/// a private one. A stats version bump (a commit, or EngineHandle::
/// RefreshStats) invalidates the entries; truncated optimizations are
/// never cached.
/// QueryOptions::bypass_plan_cache opts a single run out.
class Session {
 public:
  explicit Session(Database* db, OptimizerOptions options = {},
                   CostParams cost_params = {},
                   std::shared_ptr<PlanCache> plan_cache = nullptr,
                   std::shared_ptr<FeedbackRegistry> feedback = nullptr);

  /// Parses (ESQL-flavoured syntax, see query/parser.h), optimizes and
  /// executes under `options`.
  QueryRun Run(const std::string& text, const QueryOptions& options = {});

  /// Optimizes and executes an already-built query graph under `options`.
  QueryRun Run(const QueryGraph& graph, const QueryOptions& options = {});

  /// EXPLAIN: optimizes, collects the stage reports and decision log, and
  /// (unless options.explain_only) executes with per-operator profiling to
  /// put measured figures next to the estimates.
  ExplainResult Explain(const std::string& text,
                        const QueryOptions& options = {});
  ExplainResult Explain(const QueryGraph& graph,
                        const QueryOptions& options = {});

  /// Streaming execution: optimizes and returns a cursor over the answer
  /// instead of a materialized QueryRun. Rows are produced batch by batch
  /// as the caller pulls (plan barriers still materialize internally).
  /// Run() is this cursor drained, so cursor.counters(), measured_cost(),
  /// plan_text() and — with QueryOptions::collect_trace — trace() are
  /// final once the cursor finishes and identical to what Run() reports
  /// for the same options. Under explain_only the cursor comes back
  /// already finished, with the plan text and no rows. Parse/optimize
  /// errors come back as a cursor with !ok(). While the cursor lives,
  /// commits refuse with kConflict.
  ResultCursor Query(const std::string& text, const QueryOptions& options = {});
  ResultCursor Query(const QueryGraph& graph, const QueryOptions& options = {});

  /// Parses once into a reusable handle; see PreparedQuery.
  PreparedQuery Prepare(const std::string& text);
  PreparedQuery Prepare(const QueryGraph& graph);

  /// Optimizes without executing. Never consults the plan cache — this is
  /// the raw pipeline entry (tests use it as the cold oracle).
  OptimizeResult Optimize(const QueryGraph& graph);

  const Stats& stats() const { return *stats_; }
  const CostModel& cost_model() const { return *cost_; }
  Database& db() { return *db_; }
  PlanCache& plan_cache() { return *plan_cache_; }

  /// The adaptive-feedback registry this session harvests into and applies
  /// corrections from (see cost/feedback.h). Shared across sessions when
  /// constructed through EngineHandle — the same sharing unit as the plan
  /// cache; a standalone Session owns a private one.
  FeedbackRegistry& feedback_registry() { return *feedback_; }

  /// Multi-tenant mode: declare that this session runs *concurrently* with
  /// other sessions over the same Database. Per-run measurement then leaves
  /// the shared buffer pool's statistics and resident set alone
  /// (Executor::ResetMeasurementShared; `cold` is ignored). The server's
  /// session pool runs in this mode; single-tenant embedders keep the
  /// default (false) and retain exact cold/warm measurement semantics.
  void set_shared_db(bool on) { shared_db_ = on; }
  bool shared_db() const { return shared_db_; }

  // --- Mutation (the redesigned write API) --------------------------------
  //
  // All four calls are thin typed wrappers over the database's TxnManager;
  // a Session adds nothing but the convenience of living next to the read
  // entry points. Begin opens the single write slot (kConflict, retryable,
  // while another transaction holds it); Apply stages a batch and returns
  // provisional oids for its inserts (valid on commit success); Commit
  // validates and applies everything staged all-or-nothing, maintains
  // materialized views and bumps the engine-wide stats version; Rollback
  // discards. Commit refuses with kConflict while streaming cursors are
  // live — drain them and retry.

  Status Begin(uint64_t* txn_id) { return tm_->Begin(txn_id); }
  MutationResult Apply(uint64_t txn_id, const MutationBatch& batch);
  CommitResult Commit(uint64_t txn_id) { return tm_->Commit(txn_id); }
  Status Rollback(uint64_t txn_id) { return tm_->Rollback(txn_id); }

  /// One-shot Begin + Apply + Commit. `staged` (optional) receives the
  /// provisional oids of the batch's inserts.
  CommitResult Mutate(const MutationBatch& batch,
                      MutationResult* staged = nullptr);

  /// Registers a materialized transitive closure maintained incrementally
  /// by every commit (see txn/materialized_fix.h).
  Status Materialize(const MaterializedFixSpec& spec) {
    return tm_->RegisterView(spec);
  }
  Status DropMaterialized(const std::string& name) {
    return tm_->DropView(name);
  }
  /// The view's pairs, sorted by (src, dst) — its row-order contract.
  Status MaterializedRows(const std::string& name,
                          std::vector<std::pair<Oid, Oid>>* out) const {
    return tm_->ViewPairs(name, out);
  }

  /// The database's transaction manager (cursor registration, stats
  /// version, view policy).
  TxnManager& txn() { return *tm_; }

 private:
  friend class PreparedQuery;

  /// One run's resolved feedback configuration: QueryOptions::feedback with
  /// the inherit defaults (kDefaultDriftThreshold / kDefaultFeedbackAlpha)
  /// applied.
  struct EffectiveFeedback {
    bool on = false;
    double drift_threshold = kDefaultDriftThreshold;
    double alpha = kDefaultFeedbackAlpha;
  };
  static EffectiveFeedback ResolveFeedback(const QueryOptions& options);

  /// Feeds one successful, feedback-on run back into the loop: harvests the
  /// measured cardinalities of `exec`'s op stats into `registry` and, for a
  /// plan served from the cache, erases `cache_key` when the measured cost
  /// drifted >= fb.drift_threshold from the estimate in either direction.
  /// A run whose optimization was truncated contributes nothing. Static
  /// because a cursor's finish hook calls it, possibly after the session is
  /// gone. With a `tracer` the harvest records a `feedback.harvest` span.
  static void HarvestFeedback(FeedbackRegistry& registry, PlanCache& cache,
                              const EffectiveFeedback& fb,
                              const OptimizeResult& optimized,
                              const Executor& exec, uint64_t stats_version,
                              bool plan_cached, const std::string& cache_key,
                              obs::Tracer* tracer);

  struct QueryState;

  /// The one query path behind Run, Query and Explain: validates, optimizes
  /// through the plan cache under the read gate and returns a cursor over
  /// the chosen plan. The cursor owns a QueryState (executor, optimizer
  /// artifacts, decision log, tracer), and its finish hook publishes the
  /// pool metrics and harvests feedback. `exec` (may be null) replaces the
  /// state's own executor. A `caller_paced` cursor is registered with the
  /// TxnManager until it finishes, so commits refuse meanwhile; an
  /// unregistered one must be drained under the caller's read gate.
  /// `state_out` (may be null) receives the state.
  ResultCursor Open(const QueryGraph& graph, const QueryOptions& options,
                    const std::string* graph_digest, Executor* exec,
                    bool caller_paced, std::shared_ptr<QueryState>* state_out);
  /// Drains Open's cursor under the read gate into a QueryRun.
  QueryRun RunImpl(const QueryGraph& graph, const QueryOptions& options,
                   Executor* exec, const std::string* graph_digest);
  ExplainResult ExplainImpl(const QueryGraph& graph, const QueryOptions& options,
                            const std::string* graph_digest);
  OptimizerOptions EffectiveOptions(const QueryOptions& options) const;

  /// Picks up the shared statistics and rebuilds cost/physical identity if
  /// the engine-wide stats version moved since this session last looked
  /// (a commit or EngineHandle::RefreshStats). Called on every query entry
  /// under the TxnManager read gate, so derivation never races a commit.
  void MaybeRefreshStats();

  /// Optimizes `graph` through the plan cache: a hit fills `*out` from the
  /// cached entry (plan cloned, stage reports and decision log replayed)
  /// and returns true without running the optimizer; a miss runs the full
  /// pipeline and, when the result is complete (ok, no stage truncated),
  /// inserts it. `opt_options` must already carry the armed query context.
  ///
  /// `corrections` (may be null / empty) is applied to the cost model on a
  /// miss — it is deliberately NOT part of the fingerprint, so correction
  /// updates alone never fork cache entries; drift demotion (PlanCache::
  /// Erase) is how a stale cached plan gets re-costed. `key_out` receives
  /// the fingerprint when non-null; `reoptimized_drift` receives the drift
  /// ratio when this miss consumed a demotion note for the key (i.e. the
  /// re-optimization the demotion asked for), 0 otherwise.
  bool OptimizeThroughCache(const QueryGraph& graph,
                            const OptimizerOptions& opt_options,
                            const ObsSink& sink, const QueryOptions& options,
                            const std::string* graph_digest,
                            const FeedbackCorrections* corrections,
                            OptimizeResult* out, DecisionLog* decisions,
                            std::string* key_out, double* reoptimized_drift);

  Database* db_;
  TxnManager* tm_;  // the database's write coordinator (process singleton)
  OptimizerOptions options_;
  CostParams cost_params_;
  bool shared_db_ = false;
  /// Shared with every session over the database (TxnManager::CurrentStats).
  std::shared_ptr<const Stats> stats_;
  std::unique_ptr<CostModel> cost_;

  std::shared_ptr<PlanCache> plan_cache_;
  std::shared_ptr<FeedbackRegistry> feedback_;
  /// Fingerprint component cached once per stats refresh (the database is
  /// finalized, so the physical identity is stable between refreshes).
  std::string physical_identity_;
  /// The engine-wide (TxnManager) stats version this session's statistics
  /// belong to. Plan-cache entries written under an older version are
  /// invalidated at lookup; MaybeRefreshStats re-derives on mismatch.
  uint64_t stats_version_ = 0;
};

}  // namespace rodin

#endif  // RODIN_API_SESSION_H_
