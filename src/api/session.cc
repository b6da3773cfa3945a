#include "api/session.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
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
  return session_->Open(graph_, options, &digest_, nullptr,
                        /*caller_paced=*/true, nullptr);
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
  out.on = options.feedback.enabled;
  if (options.feedback.drift_threshold > 0) {
    out.drift_threshold = options.feedback.drift_threshold;
  }
  if (options.feedback.ewma_alpha > 0) out.alpha = options.feedback.ewma_alpha;
  return out;
}

void Session::HarvestFeedback(FeedbackRegistry& registry, PlanCache& cache,
                              const EffectiveFeedback& fb,
                              const OptimizeResult& optimized,
                              const Executor& exec, uint64_t stats_version,
                              bool plan_cached, const std::string& cache_key,
                              obs::Tracer* tracer) {
  // Only complete runs teach the registry. A plan truncated by an anytime
  // budget contributes zero observations: it is not the plan a full search
  // would pick, so its measurements would correct the wrong estimates.
  for (const StageReport& s : optimized.stages) {
    if (s.truncated) return;
  }
  uint64_t span = 0;
  if (tracer != nullptr) span = tracer->Begin("feedback.harvest", "cost");
  const size_t harvested = registry.Harvest(
      FlattenPlanStats(*optimized.plan, exec.op_stats()), stats_version,
      fb.alpha);
  if (tracer != nullptr) {
    tracer->AddArg(span, "observations", static_cast<double>(harvested));
    tracer->End(span);
  }
  // Drift demotion: a *cached* plan whose measured cost strayed >= threshold
  // from its estimate is evicted so the next acquisition re-optimizes under
  // current corrections. Freshly optimized plans are never demoted — they
  // already used the latest corrections, and demoting them would re-run the
  // pipeline forever.
  const double measured = exec.MeasuredCost();
  if (!plan_cached || cache_key.empty() || measured <= 0 ||
      optimized.cost <= 0) {
    return;
  }
  const double ratio =
      std::max(measured / optimized.cost, optimized.cost / measured);
  if (ratio >= fb.drift_threshold && cache.Erase(cache_key)) {
    registry.NoteDemotion(cache_key, ratio);
  }
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
  const bool use_cache = !options.bypass_plan_cache;
  // Budget-aware costing: an explicit per-query memory budget enters the
  // cost params (the spill penalty term) and with them the plan-cache
  // fingerprint, so budgeted and unbudgeted runs of one query never share
  // a cached plan.
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

/// Everything a cursor needs to keep alive: the executor doing the work, the
/// optimizer artifacts the run reports, the armed lifecycle context the
/// engine polls and the tracer its spans go to.
struct Session::QueryState {
  QueryState(Database* db, CostParams params, Executor* borrowed)
      : exec(borrowed) {
    if (exec == nullptr) exec = &owned.emplace(db, params);
  }
  std::optional<Executor> owned;
  Executor* exec;  // `owned`, or the caller's (Explain's profiling executor)
  OptimizeResult optimized;
  DecisionLog decisions;
  bool plan_cached = false;
  double reoptimized_drift = 0;
  /// One copy of the caller's budget with its deadline clock started; the
  /// cancel token inside still shares the caller's flag, so RequestCancel()
  /// from any thread stops the next batch however long the cursor lives.
  QueryContext qctx;
  obs::Tracer tracer;
};

ResultCursor Session::Open(const QueryGraph& graph, const QueryOptions& options,
                           const std::string* graph_digest, Executor* exec,
                           bool caller_paced,
                           std::shared_ptr<QueryState>* state_out) {
  const Status valid = options.Validate();
  if (!valid.ok()) return ResultCursor(valid);
  // Optimization and stream setup run under the read gate (re-entrant, so a
  // Run holding it for its whole drain nests fine). A caller-paced cursor
  // is registered with the TxnManager *before* the gate releases, so a
  // commit can never slip between setup and registration — it refuses
  // (kConflict) while the cursor lives, which is what keeps the cursor's
  // raw extent coordinates valid across user-paced pulls
  // (docs/ROBUSTNESS.md).
  TxnManager::ReadGuard read_gate(tm_);
  MaybeRefreshStats();

  auto state = std::make_shared<QueryState>(db_, cost_params_, exec);
  if (state_out != nullptr) *state_out = state;
  state->qctx = options.query;
  state->qctx.ArmDeadline();
  obs::Tracer* tracer = options.collect_trace ? &state->tracer : nullptr;

  ObsSink sink;
  sink.decisions = &state->decisions;
  sink.tracer = tracer;
  OptimizerOptions opt_options = EffectiveOptions(options);
  opt_options.query = &state->qctx;

  const EffectiveFeedback fb = ResolveFeedback(options);
  FeedbackCorrections corrections;
  if (fb.on) {
    obs::ScopedSpan span(tracer, "feedback.apply", "cost");
    corrections = feedback_->Snapshot(stats_version_);
    span.Arg("corrections", static_cast<double>(corrections.size()));
  }
  std::string cache_key;
  state->plan_cached = OptimizeThroughCache(
      graph, opt_options, sink, options, graph_digest,
      fb.on ? &corrections : nullptr, &state->optimized, &state->decisions,
      &cache_key, &state->reoptimized_drift);
  if (!state->optimized.ok() || options.explain_only) {
    // Nothing executes: an already finished cursor, ok and carrying the
    // plan text when only the plan was asked for.
    ResultCursor done(state->optimized.status);
    if (done.ok()) done.set_plan_text(PrintPT(*state->optimized.plan));
    if (tracer != nullptr) done.set_trace_source(tracer);
    return done;
  }

  Executor& e = *state->exec;
  // Harvesting needs per-operator figures; the collection itself never
  // touches ExecCounters, so counters stay bit-identical feedback-off.
  if (fb.on) e.CollectOpStats(true);
  if (shared_db_) {
    e.ResetMeasurementShared();
  } else {
    e.ResetMeasurement(options.cold);
  }
  e.set_tracer(tracer);  // the cursor keeps it for its execute span
  ResultCursor cursor = e.ExecuteStream(*state->optimized.plan,
                                        options.MakeExecOptions(&state->qctx));
  e.set_tracer(nullptr);
  cursor.set_plan_text(PrintPT(*state->optimized.plan));

  // The finish hook fires exactly once per cursor (drained, failed or
  // destroyed), so the TxnManager's cursor count is balanced even for
  // abandoned cursors. Everything it touches is held by value or shared
  // pointer: a cursor may outlive its session.
  if (caller_paced) tm_->BeginCursor();
  TxnManager* tm = caller_paced ? tm_ : nullptr;
  Database* db = db_;
  std::shared_ptr<FeedbackRegistry> freg = fb.on ? feedback_ : nullptr;
  std::shared_ptr<PlanCache> cache = plan_cache_;
  const uint64_t harvest_version = stats_version_;
  QueryState* st = state.get();  // the cursor's keepalive
  cursor.set_on_finish([db, tm, freg, cache, fb, harvest_version, cache_key,
                        st, tracer](const Status& status, bool drained) {
    db->buffer_pool().PublishMetrics();
    if (tm != nullptr) tm->EndCursor();
    // Only a stream pulled to genuine exhaustion has complete measurements;
    // failed, cancelled or abandoned runs teach the registry nothing.
    if (freg == nullptr || !drained || !status.ok()) return;
    HarvestFeedback(*freg, *cache, fb, st->optimized, *st->exec,
                    harvest_version, st->plan_cached, cache_key, tracer);
  });
  if (tracer != nullptr) cursor.set_trace_source(tracer);
  cursor.set_keepalive(std::move(state));
  return cursor;
}

QueryRun Session::RunImpl(const QueryGraph& graph, const QueryOptions& options,
                          Executor* exec, const std::string* graph_digest) {
  QueryRun run;
  run.graph = graph;
  // The whole drain holds the read gate and the cursor is not registered:
  // a commit waits for this run instead of refusing, and the run sees
  // either the full pre- or the full post-commit state, never a torn one.
  TxnManager::ReadGuard read_gate(tm_);
  std::shared_ptr<QueryState> state;
  {
    ResultCursor cursor = Open(graph, options, graph_digest, exec,
                               /*caller_paced=*/false, &state);
    run.answer = cursor.ToTable();
    run.status = cursor.status();
    if (!run.ok()) run.answer.rows.clear();
    run.plan_text = cursor.plan_text();
    run.measured_cost = cursor.measured_cost();
    run.counters = cursor.counters();
    run.trace = cursor.trace();
  }
  if (state != nullptr) {
    run.optimized = std::move(state->optimized);
    run.decisions = std::move(state->decisions);
    run.plan_cached = state->plan_cached;
    run.reoptimized_drift = state->reoptimized_drift;
  }
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

ResultCursor Session::Query(const QueryGraph& graph,
                            const QueryOptions& options) {
  return Open(graph, options, nullptr, nullptr, /*caller_paced=*/true,
              nullptr);
}

ResultCursor Session::Query(const std::string& text,
                            const QueryOptions& options) {
  const ParseResult parsed = ParseQuery(text, db_->schema());
  if (!parsed.ok()) return ResultCursor(parsed.status);
  return Open(parsed.graph, options, nullptr, nullptr, /*caller_paced=*/true,
              nullptr);
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
