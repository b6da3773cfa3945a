#include "api/session.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/faults.h"
#include "common/string_util.h"
#include "exec/vm/compiler.h"
#include "plan/pt_printer.h"
#include "query/parser.h"

namespace rodin {

namespace {

ExplainNode BuildExplainNode(const PTNode& node,
                             const std::map<const PTNode*, OpStats>& stats) {
  ExplainNode out;
  out.label = PTNodeLabel(node);
  out.est_cost = node.est_cost;
  out.est_rows = node.est_rows;
  auto it = stats.find(&node);
  if (it != stats.end()) {
    out.executed = true;
    out.measured = it->second;
  }
  for (const auto& c : node.children) {
    out.children.push_back(BuildExplainNode(*c, stats));
  }
  return out;
}

void PrintExplainNode(const ExplainNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(node.label);
  if (node.est_cost >= 0) {
    out->append(StrFormat("   {est cost=%.1f rows=%.1f}", node.est_cost,
                          node.est_rows));
  }
  if (node.executed) {
    out->append(StrFormat(
        "   [measured rows=%llu pages=%llu time=%.0fus calls=%llu]",
        static_cast<unsigned long long>(node.measured.rows),
        static_cast<unsigned long long>(node.measured.pages),
        node.measured.micros,
        static_cast<unsigned long long>(node.measured.invocations)));
  }
  out->append("\n");
  for (const ExplainNode& c : node.children) {
    PrintExplainNode(c, depth + 1, out);
  }
}

}  // namespace

std::string ExplainResult::ToString() const {
  std::string out = "EXPLAIN\n";
  if (!ok()) {
    out += "status: " + status.ToString() + "\n";
    return out;
  }
  out += "stages:\n";
  for (const StageReport& s : stages) {
    // The truncated marker renders only when set, so untruncated reports
    // stay byte-identical to the pre-anytime format.
    out += StrFormat("  %-12s granularity=%-24s strategy=%-32s plans=%zu%s\n",
                     s.stage.c_str(), s.granularity.c_str(),
                     s.strategy.c_str(), s.plans_explored,
                     s.truncated ? "  [truncated: budget hit]" : "");
  }
  out += "decisions:\n";
  for (const std::string& line : Split(decisions.ToString(), '\n')) {
    if (!line.empty()) out += "  " + line + "\n";
  }
  if (pushed_variant_cost >= 0 && unpushed_variant_cost >= 0) {
    out += StrFormat("push decision: pushed=%.1f unpushed=%.1f -> %s\n",
                     pushed_variant_cost, unpushed_variant_cost,
                     chose_push ? "pushed" : "unpushed");
  }
  if (plan_cached) {
    out += "[plan: cached]\n";
  } else if (reoptimized_drift > 0) {
    out += StrFormat("[plan: re-optimized (drift %.1fx)]\n", reoptimized_drift);
  }
  out += "plan:\n";
  std::string tree;
  PrintExplainNode(plan, 1, &tree);
  out += tree;
  out += StrFormat("est_cost: %.1f\n", est_cost);
  if (measured_cost >= 0) {
    out += StrFormat("measured_cost: %.1f\n", measured_cost);
  }
  if (!vm_disassembly.empty()) {
    out += "bytecode (compiled eval):\n";
    for (const std::string& line : Split(vm_disassembly, '\n')) {
      if (!line.empty()) out += "  " + line + "\n";
    }
  }
  return out;
}

PreparedQuery::PreparedQuery(Session* session, Status status, QueryGraph graph)
    : session_(session), status_(std::move(status)), graph_(std::move(graph)) {
  if (status_.ok()) digest_ = GraphDigest(graph_);
}

QueryRun PreparedQuery::Run(const QueryOptions& options) {
  if (!status_.ok()) {
    QueryRun run;
    run.status = status_;
    return run;
  }
  return session_->RunImpl(graph_, options, nullptr, &digest_);
}

ExplainResult PreparedQuery::Explain(const QueryOptions& options) {
  if (!status_.ok()) {
    ExplainResult ex;
    ex.status = status_;
    return ex;
  }
  return session_->ExplainImpl(graph_, options, &digest_);
}

ResultCursor PreparedQuery::Query(const QueryOptions& options) {
  if (!status_.ok()) return ResultCursor(status_);
  return session_->QueryImpl(graph_, options, &digest_);
}

Session::Session(Database* db, OptimizerOptions options, CostParams cost_params,
                 std::shared_ptr<PlanCache> plan_cache,
                 std::shared_ptr<FeedbackRegistry> feedback)
    : db_(db),
      options_(options),
      cost_params_(cost_params),
      plan_cache_(std::move(plan_cache)),
      feedback_(std::move(feedback)) {
  RODIN_CHECK(db != nullptr && db->finalized(),
              "Session needs a finalized database");
  tm_ = TxnManager::For(db);
  if (plan_cache_ == nullptr) plan_cache_ = std::make_shared<PlanCache>();
  if (feedback_ == nullptr) feedback_ = std::make_shared<FeedbackRegistry>();
  TxnManager::ReadGuard guard(tm_);
  MaybeRefreshStats();
}

Session::EffectiveFeedback Session::ResolveFeedback(
    const QueryOptions& options) {
  EffectiveFeedback out;
  out.on = options.feedback.enabled.value_or(FeedbackEnvDefault());
  // Same rule as the plan cache: an enabled injector perturbs and retries
  // attempts, so neither side of the loop may run — corrections applied
  // mid-test would make a retried run's plan differ from the clean run it
  // must be bit-identical to, and harvesting is blocked anyway. Full
  // bypass, both apply and harvest.
  if (FaultInjector::Global().enabled()) out.on = false;
  if (options.feedback.drift_threshold > 0) {
    out.drift_threshold = options.feedback.drift_threshold;
  }
  if (options.feedback.ewma_alpha > 0) out.alpha = options.feedback.ewma_alpha;
  return out;
}

void Session::MaybeRefreshStats() {
  const uint64_t version = tm_->stats_version();
  if (stats_ != nullptr && version == stats_version_) return;
  // Statistics moved, so plans chosen under the old ones must not be served
  // any more; entries fingerprinted at an older version drop at next lookup.
  stats_ = tm_->CurrentStats(&stats_version_);
  cost_ = std::make_unique<CostModel>(db_, stats_.get(), cost_params_);
  physical_identity_ = PhysicalIdentity(*db_);
}

void Session::RefreshStats() {
  tm_->BumpStatsVersion();
  TxnManager::ReadGuard guard(tm_);
  MaybeRefreshStats();
}

MutationResult Session::Apply(uint64_t txn_id, const MutationBatch& batch) {
  MutationResult staged;
  const Status st = tm_->Stage(txn_id, batch, &staged);
  if (!st.ok()) staged.status = st;
  return staged;
}

CommitResult Session::Mutate(const MutationBatch& batch,
                             MutationResult* staged) {
  uint64_t txn_id = 0;
  const Status begin = tm_->Begin(&txn_id);
  if (!begin.ok()) {
    CommitResult res;
    res.status = begin;
    return res;
  }
  MutationResult local;
  const Status stage = tm_->Stage(txn_id, batch, &local);
  if (!stage.ok()) {
    tm_->Rollback(txn_id);
    CommitResult res;
    res.status = stage;
    return res;
  }
  if (staged != nullptr) *staged = local;
  CommitResult res = tm_->Commit(txn_id);
  if (res.status.code == Status::Code::kConflict) {
    // One-shot callers have no handle to retry with; don't leave the write
    // slot wedged behind an abandoned transaction.
    tm_->Rollback(txn_id);
  }
  return res;
}

OptimizerOptions Session::EffectiveOptions(const QueryOptions& options) const {
  OptimizerOptions opt = options_;
  if (options.search_threads.has_value()) {
    opt.search_threads = *options.search_threads;
  }
  if (options.seed.has_value()) opt.seed = *options.seed;
  return opt;
}

OptimizeResult Session::Optimize(const QueryGraph& graph) {
  TxnManager::ReadGuard guard(tm_);
  MaybeRefreshStats();
  Optimizer optimizer(db_, stats_.get(), cost_.get(), options_);
  return optimizer.Optimize(graph);
}

bool Session::OptimizeThroughCache(const QueryGraph& graph,
                                   const OptimizerOptions& opt_options,
                                   const ObsSink& sink,
                                   const QueryOptions& options,
                                   const std::string* graph_digest,
                                   const FeedbackCorrections* corrections,
                                   OptimizeResult* out,
                                   DecisionLog* decisions,
                                   std::string* key_out,
                                   double* reoptimized_drift) {
  if (reoptimized_drift != nullptr) *reoptimized_drift = 0;
  // The injector makes any attempt (optimizer or executor) abortable and
  // retryable; a plan produced or reused under it could differ from the
  // clean-run plan in unverifiable ways. Bypass entirely: no lookups, no
  // inserts — under RODIN_FAULTS the hit rate is 0 by construction.
  const bool use_cache = PlanCacheEnabledByEnv() &&
                         !options.bypass_plan_cache &&
                         !FaultInjector::Global().enabled();
  // Budget-aware costing: an explicit per-query memory budget enters the
  // cost params (the spill penalty term) and with them the plan-cache
  // fingerprint, so budgeted and unbudgeted runs of one query never share
  // a cached plan. The spill-budget ledger override and RODIN_SPILL_BUDGET
  // deliberately do NOT enter: they are spill-forcing test plumbing, and
  // perturbing plan choice would break the bit-identity they exist to
  // exercise.
  CostParams effective_params = cost_params_;
  effective_params.memory_budget_pages = options.query.memory_budget_pages;
  std::string key;
  if (use_cache) {
    key = ComposeFingerprint(
        graph_digest != nullptr ? *graph_digest : GraphDigest(graph),
        physical_identity_, effective_params, opt_options);
    if (key_out != nullptr) *key_out = key;
    PlanCacheEntry entry;
    if (plan_cache_->Lookup(key, stats_version_, &entry)) {
      out->plan = std::move(entry.plan);
      out->status = Status::Ok();
      out->cost = entry.cost;
      out->plans_explored = entry.plans_explored;
      out->stages = entry.stages;
      out->pushed_sel = entry.pushed_sel;
      out->pushed_join = entry.pushed_join;
      out->pushed_proj = entry.pushed_proj;
      out->pushed_variant_cost = entry.pushed_variant_cost;
      out->unpushed_variant_cost = entry.unpushed_variant_cost;
      if (decisions != nullptr) *decisions = std::move(entry.decisions);
      return true;
    }
    // Miss. If the feedback loop demoted this fingerprint for cost drift,
    // this optimization is the re-optimization the demotion asked for —
    // consume the note so EXPLAIN can say why the pipeline ran again.
    if (reoptimized_drift != nullptr) {
      *reoptimized_drift = feedback_->TakeDemotionNote(key);
    }
  }

  // Feedback corrections scale the cost model's cardinality estimates
  // toward observed reality (see cost/feedback.h) without entering the
  // fingerprint: a corrected re-optimization overwrites the entry under the
  // same key rather than forking it. An empty snapshot costs nothing — the
  // model ignores a null/empty corrections pointer entirely, so plans are
  // bit-identical to feedback-off until the first harvest lands.
  std::optional<CostModel> corrected;
  const CostModel* cost = cost_.get();
  if (corrections != nullptr && !corrections->empty()) {
    corrected.emplace(db_, stats_.get(), effective_params, corrections);
    cost = &*corrected;
  } else if (effective_params.memory_budget_pages != 0) {
    corrected.emplace(db_, stats_.get(), effective_params, nullptr);
    cost = &*corrected;
  }
  Optimizer optimizer(db_, stats_.get(), cost, opt_options);
  *out = optimizer.Optimize(graph, sink);

  if (use_cache && out->ok()) {
    // Truncated stages mean the search stopped early under this run's
    // budget; a later run with a looser budget deserves the full search,
    // so incomplete plans are never cached.
    bool truncated = false;
    for (const StageReport& s : out->stages) truncated |= s.truncated;
    if (!truncated) {
      PlanCacheEntry entry;
      entry.plan = out->plan->Clone();
      entry.cost = out->cost;
      entry.plans_explored = out->plans_explored;
      entry.stages = out->stages;
      if (decisions != nullptr) entry.decisions = *decisions;
      entry.pushed_sel = out->pushed_sel;
      entry.pushed_join = out->pushed_join;
      entry.pushed_proj = out->pushed_proj;
      entry.pushed_variant_cost = out->pushed_variant_cost;
      entry.unpushed_variant_cost = out->unpushed_variant_cost;
      entry.stats_version = stats_version_;
      plan_cache_->Insert(key, std::move(entry));
    }
  }
  return false;
}

QueryRun Session::RunImpl(const QueryGraph& graph, const QueryOptions& options,
                          Executor* exec, const std::string* graph_digest) {
  QueryRun run;
  run.graph = graph;
  run.status = options.Validate();
  if (!run.status.ok()) return run;

  // The whole run holds the TxnManager read gate: a commit drains readers
  // before mutating anything, so this run sees either the full pre- or full
  // post-commit state — never a torn one. The guard is re-entrant, so
  // Explain's delegation here nests fine.
  TxnManager::ReadGuard read_gate(tm_);
  MaybeRefreshStats();

  // The retry loop below snapshots and restores the buffer pool's resident
  // set between attempts. A live streaming cursor defers its page charges
  // to finalize time; interleaving that replay with a restore would corrupt
  // the pool's accounting, so the retryable paths refuse to start until the
  // session's outstanding cursors are drained (or destroyed).
  // Shared-db (multi-tenant) sessions never consult the fault injector: the
  // retry path's pool snapshot/restore cannot be made safe while concurrent
  // sessions charge the same pool.
  const bool faults_on = !shared_db_ && FaultInjector::Global().enabled();
  if (faults_on && live_streams() > 0) {
    const uint64_t live = live_streams();
    run.status = Status::Error(
        Status::Code::kInvalidArgument,
        StrFormat("cannot Run/Explain with fault injection while %llu "
                  "streaming cursor(s) from this session are still live; "
                  "drain or destroy them first",
                  static_cast<unsigned long long>(live)));
    // Structured contract (docs/ROBUSTNESS.md): the refusal carries the
    // live-cursor count, so pool managers branch on detail, not on text.
    run.status.detail = live;
    return run;
  }

  // The run's armed lifecycle context: one copy of the caller's budget,
  // deadline clock started here, referenced by pointer from every stage.
  // The cancel token inside still shares the caller's flag.
  QueryContext qctx = options.query;
  qctx.ArmDeadline();

  obs::Tracer tracer;
  ObsSink sink;
  sink.decisions = &run.decisions;
  if (options.collect_trace) sink.tracer = &tracer;

  OptimizerOptions opt_options = EffectiveOptions(options);
  opt_options.query = &qctx;
  // Run/Explain are the retryable, non-streaming paths: they are the only
  // ones that consult the fault injector (never in shared-db mode).
  opt_options.inject_faults = !shared_db_;

  const EffectiveFeedback fb = ResolveFeedback(options);
  FeedbackCorrections corrections;
  if (fb.on) {
    uint64_t span = 0;
    if (options.collect_trace) span = tracer.Begin("feedback.apply", "cost");
    corrections = feedback_->Snapshot(stats_version_);
    if (options.collect_trace) {
      tracer.AddArg(span, "corrections",
                    static_cast<double>(corrections.size()));
      tracer.End(span);
    }
  }
  std::string cache_key;
  run.plan_cached = OptimizeThroughCache(
      graph, opt_options, sink, options, graph_digest,
      fb.on ? &corrections : nullptr, &run.optimized, &run.decisions,
      &cache_key, &run.reoptimized_drift);
  if (!run.optimized.ok()) {
    run.status = run.optimized.status;
    if (options.collect_trace) run.trace = tracer.Finish();
    return run;
  }
  run.plan_text = PrintPT(*run.optimized.plan);

  if (!options.explain_only) {
    Executor local(db_, cost_params_);
    Executor& e = exec != nullptr ? *exec : local;
    // Harvesting needs per-operator figures; the collection itself never
    // touches ExecCounters, so counters stay bit-identical feedback-off.
    if (fb.on) e.CollectOpStats(true);
    if (options.collect_trace) e.set_tracer(&tracer);
    ExecOptions exec_options = options.MakeExecOptions(&qctx);
    exec_options.inject_faults = !shared_db_;

    // Retry-with-backoff for transient (kFault) aborts. Only the execution
    // phase re-runs — the optimizer already committed its plan and its
    // metrics. Between attempts every piece of measurement state is
    // restored (counters, fix cache, and for warm runs the resident set),
    // so the surviving attempt's answer, counters and measured cost are
    // bit-identical to a run that never faulted.
    //
    // Injection stops after kFaultedAttemptLimit faulted attempts (a
    // circuit breaker): per-batch fault draws make a long query's per-
    // attempt fault probability approach 1, so without the breaker no
    // number of retries would converge. A clean attempt is unperturbed by
    // the draws, so the breaker never changes a surviving run's results.
    std::vector<PageId> resident;
    if (faults_on && !options.cold) {
      resident = db_->buffer_pool().SnapshotResident();
    }
    constexpr int kMaxAttempts = 16;
    constexpr int kFaultedAttemptLimit = 8;
    Status exec_status;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      if (attempt > 0) {
        e.ClearFixCache();
        if (!options.cold) db_->buffer_pool().RestoreResident(resident);
        std::this_thread::sleep_for(
            std::chrono::microseconds(1u << std::min(attempt, 10)));
      }
      exec_options.inject_faults = !shared_db_ && attempt < kFaultedAttemptLimit;
      if (shared_db_) {
        e.ResetMeasurementShared();
      } else {
        e.ResetMeasurement(options.cold);
      }
      exec_status =
          e.ExecuteInto(*run.optimized.plan, exec_options, &run.answer);
      if (!exec_status.retryable()) break;
    }
    if (!exec_status.ok()) run.status = exec_status;
    run.measured_cost = e.MeasuredCost();
    run.counters = e.counters();
    e.set_tracer(nullptr);
    db_->buffer_pool().PublishMetrics();

    // Feedback harvest: only complete, clean runs teach the registry.
    // Anything retried under the injector, truncated by an anytime budget,
    // or failed outright contributes zero observations — a perturbed run's
    // measurements describe the perturbation, not the data.
    if (fb.on && run.status.ok() && !FaultInjector::Global().enabled()) {
      bool truncated = false;
      for (const StageReport& s : run.optimized.stages) {
        truncated |= s.truncated;
      }
      if (!truncated) {
        uint64_t span = 0;
        if (options.collect_trace) {
          span = tracer.Begin("feedback.harvest", "cost");
        }
        const size_t harvested = feedback_->Harvest(
            FlattenPlanStats(*run.optimized.plan, e.op_stats()),
            stats_version_, fb.alpha);
        if (options.collect_trace) {
          tracer.AddArg(span, "observations", static_cast<double>(harvested));
          tracer.End(span);
        }
        // Drift demotion: a *cached* plan whose measured cost strayed
        // >= threshold from its estimate is evicted so the next acquisition
        // re-optimizes under current corrections. Freshly optimized plans
        // are never demoted — they already used the latest corrections, and
        // demoting them would re-run the pipeline forever.
        if (run.plan_cached && !cache_key.empty() && run.measured_cost > 0 &&
            run.optimized.cost > 0) {
          const double ratio =
              std::max(run.measured_cost / run.optimized.cost,
                       run.optimized.cost / run.measured_cost);
          if (ratio >= fb.drift_threshold && plan_cache_->Erase(cache_key)) {
            feedback_->NoteDemotion(cache_key, ratio);
          }
        }
      }
    }
  }
  if (options.collect_trace) run.trace = tracer.Finish();
  return run;
}

QueryRun Session::Run(const QueryGraph& graph, const QueryOptions& options) {
  return RunImpl(graph, options, nullptr, nullptr);
}

QueryRun Session::Run(const std::string& text, const QueryOptions& options) {
  const ParseResult parsed = ParseQuery(text, db_->schema());
  if (!parsed.ok()) {
    QueryRun run;
    run.status = parsed.status;
    return run;
  }
  return RunImpl(parsed.graph, options, nullptr, nullptr);
}

namespace {

/// Everything a live cursor needs to keep alive: the executor doing the
/// work plus the optimizer artifacts the cursor's accessors reference.
struct QueryState {
  QueryState(Database* db, CostParams params) : exec(db, params) {}
  Executor exec;
  OptimizeResult optimized;
  DecisionLog decisions;
  /// The cursor's armed lifecycle context. Lives exactly as long as the
  /// cursor (keepalive), so the engine's per-batch polls stay valid however
  /// long the caller holds the cursor — and a copy of the caller's cancel
  /// token means RequestCancel() from any thread stops the next Next().
  QueryContext qctx;
};

}  // namespace

ResultCursor Session::QueryImpl(const QueryGraph& graph,
                                const QueryOptions& options,
                                const std::string* graph_digest) {
  Status vstatus = options.Validate();
  if (!vstatus.ok()) return ResultCursor(vstatus);
  // Optimization and stream setup run under the read gate; the cursor is
  // registered with the TxnManager *before* the gate releases, so a commit
  // can never slip between setup and registration — it refuses (kConflict)
  // while the cursor lives, which is what keeps the cursor's raw extent
  // coordinates valid across user-paced pulls (docs/ROBUSTNESS.md).
  TxnManager::ReadGuard read_gate(tm_);
  MaybeRefreshStats();
  if (options.collect_trace) {
    // Silently dropping the flag (the old behaviour) made callers believe
    // they had a trace when cursor.trace() never existed.
    return ResultCursor(Status::Error(
        Status::Code::kInvalidArgument,
        "collect_trace is not supported on the streaming Query path; use "
        "Session::Run or Session::Explain to collect a trace"));
  }

  auto state = std::make_shared<QueryState>(db_, cost_params_);
  state->qctx = options.query;
  state->qctx.ArmDeadline();

  ObsSink sink;
  sink.decisions = &state->decisions;
  OptimizerOptions opt_options = EffectiveOptions(options);
  opt_options.query = &state->qctx;
  OptimizeResult& optimized = state->optimized;
  const EffectiveFeedback fb = ResolveFeedback(options);
  FeedbackCorrections corrections;
  if (fb.on) corrections = feedback_->Snapshot(stats_version_);
  std::string cache_key;
  const bool cached = OptimizeThroughCache(
      graph, opt_options, sink, options, graph_digest,
      fb.on ? &corrections : nullptr, &optimized, &state->decisions,
      &cache_key, nullptr);
  if (!optimized.ok()) {
    return ResultCursor(optimized.status);
  }

  if (fb.on) state->exec.CollectOpStats(true);
  if (shared_db_) {
    state->exec.ResetMeasurementShared();
  } else {
    state->exec.ResetMeasurement(options.cold);
  }
  // Streaming runs reference the state-owned context; fault injection stays
  // off (a half-consumed stream cannot be transparently retried).
  ResultCursor cursor = state->exec.ExecuteStream(
      *state->optimized.plan, options.MakeExecOptions(&state->qctx));
  cursor.set_plan_text(PrintPT(*state->optimized.plan));
  Database* db = db_;
  // The finalize hook fires exactly once per cursor (drained, failed or
  // destroyed), so the live-stream count is balanced even for abandoned
  // cursors. The shared counter keeps the hook safe past session teardown.
  live_streams_->fetch_add(1);
  tm_->BeginCursor();
  std::shared_ptr<std::atomic<uint64_t>> live = live_streams_;
  TxnManager* tm = tm_;  // outlives the cursor (it lives with the database)
  // Feedback harvest context, resolved now: shared_ptrs keep the registry
  // and cache alive past session teardown (a cursor may outlive its
  // session), and the keepalive state carries the plan + op stats.
  std::shared_ptr<FeedbackRegistry> freg = fb.on ? feedback_ : nullptr;
  std::shared_ptr<PlanCache> cache = plan_cache_;
  bool truncated = false;
  for (const StageReport& s : optimized.stages) truncated |= s.truncated;
  const uint64_t harvest_version = stats_version_;
  const double alpha = fb.alpha;
  const double drift_threshold = fb.drift_threshold;
  const double est_cost = optimized.cost;
  std::shared_ptr<QueryState> keep = state;
  cursor.set_on_finish([db, live, tm, freg, cache, truncated, harvest_version,
                        alpha, drift_threshold, est_cost, cached, cache_key,
                        keep](const Status& st, bool drained) {
    db->buffer_pool().PublishMetrics();
    live->fetch_sub(1);
    tm->EndCursor();
    // Only a stream pulled to genuine exhaustion has complete measurements;
    // cancelled, aborted or abandoned cursors teach the registry nothing.
    if (freg == nullptr || !drained || !st.ok() || truncated ||
        FaultInjector::Global().enabled()) {
      return;
    }
    freg->Harvest(FlattenPlanStats(*keep->optimized.plan,
                                   keep->exec.op_stats()),
                  harvest_version, alpha);
    if (cached && !cache_key.empty() && est_cost > 0) {
      const double measured = keep->exec.MeasuredCost();
      if (measured > 0) {
        const double ratio =
            std::max(measured / est_cost, est_cost / measured);
        if (ratio >= drift_threshold && cache->Erase(cache_key)) {
          freg->NoteDemotion(cache_key, ratio);
        }
      }
    }
  });
  cursor.set_keepalive(std::move(state));
  return cursor;
}

ResultCursor Session::Query(const QueryGraph& graph,
                            const QueryOptions& options) {
  return QueryImpl(graph, options, nullptr);
}

ResultCursor Session::Query(const std::string& text,
                            const QueryOptions& options) {
  const ParseResult parsed = ParseQuery(text, db_->schema());
  if (!parsed.ok()) return ResultCursor(parsed.status);
  return QueryImpl(parsed.graph, options, nullptr);
}

PreparedQuery Session::Prepare(const std::string& text) {
  ParseResult parsed = ParseQuery(text, db_->schema());
  return PreparedQuery(this, parsed.status, std::move(parsed.graph));
}

PreparedQuery Session::Prepare(const QueryGraph& graph) {
  return PreparedQuery(this, Status::Ok(), graph);
}

ExplainResult Session::ExplainImpl(const QueryGraph& graph,
                                   const QueryOptions& options,
                                   const std::string* graph_digest) {
  ExplainResult ex;
  Executor exec(db_, cost_params_);
  exec.CollectOpStats(true);
  QueryRun run = RunImpl(graph, options, &exec, graph_digest);
  ex.status = run.status;
  ex.trace = run.trace;
  if (!run.ok()) return ex;

  ex.stages = run.optimized.stages;
  ex.decisions = std::move(run.decisions);
  ex.plan_text = run.plan_text;
  ex.est_cost = run.optimized.cost;
  ex.measured_cost = run.measured_cost;
  ex.counters = run.counters;
  ex.pushed_variant_cost = run.optimized.pushed_variant_cost;
  ex.unpushed_variant_cost = run.optimized.unpushed_variant_cost;
  ex.chose_push = run.optimized.pushed_sel || run.optimized.pushed_join ||
                  run.optimized.pushed_proj;
  ex.plan_cached = run.plan_cached;
  ex.reoptimized_drift = run.reoptimized_drift;
  ex.plan = BuildExplainNode(*run.optimized.plan, exec.op_stats());
  ex.node_stats_ = FlattenPlanStats(*run.optimized.plan, exec.op_stats());
  ex.vm_disassembly = vm::DisassemblePlan(*run.optimized.plan, *db_);
  return ex;
}

ExplainResult Session::Explain(const QueryGraph& graph,
                               const QueryOptions& options) {
  return ExplainImpl(graph, options, nullptr);
}

ExplainResult Session::Explain(const std::string& text,
                               const QueryOptions& options) {
  const ParseResult parsed = ParseQuery(text, db_->schema());
  if (!parsed.ok()) {
    ExplainResult ex;
    ex.status = parsed.status;
    return ex;
  }
  return ExplainImpl(parsed.graph, options, nullptr);
}

}  // namespace rodin
