#include "optimizer/optimizer.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/faults.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/strategy.h"
#include "optimizer/translate.h"

namespace rodin {

namespace {

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The budget poll at a stage boundary. Stages 1-3 are all-or-nothing, so a
/// tripped budget before stage `n` aborts the whole optimization; only
/// transformPT (stage 4) degrades to an anytime result instead. A forced
/// deadline (FaultConfig::force_deadline_stage, a test seam) is reported
/// identically to a real one.
Status CheckStageBudget(const OptimizerOptions& options, int stage) {
  if (FaultInjector::Global().ForceDeadlineAtStage(stage)) {
    return Status::Error(Status::Code::kDeadlineExceeded,
                         StrFormat("deadline exceeded (forced at stage %d)",
                                   stage));
  }
  if (options.query != nullptr) return options.query->Check();
  return Status::Ok();
}

}  // namespace

double EstimateFixIters(const NormalizedSPJ& rec, const std::string& delta_var,
                        const Stats& stats) {
  double best = 0;
  for (const ExprPtr& c : rec.conjuncts) {
    if (c->kind() != ExprKind::kCompare ||
        c->compare_op() != CompareOp::kEq) {
      continue;
    }
    const ExprPtr& l = c->children()[0];
    const ExprPtr& r = c->children()[1];
    if (l->kind() != ExprKind::kVarPath || r->kind() != ExprKind::kVarPath) {
      continue;
    }
    // One side must come from the delta, the other from a class arc through
    // a self-chaining attribute.
    for (int flip = 0; flip < 2; ++flip) {
      const ExprPtr& delta_side = flip == 0 ? l : r;
      const ExprPtr& class_side = flip == 0 ? r : l;
      if (delta_side->var() != delta_var) continue;
      const ArcInfo* arc = rec.FindArc(class_side->var());
      if (arc == nullptr || arc->kind != NameKind::kClass ||
          class_side->path().size() != 1) {
        continue;
      }
      const AttrStats& as =
          stats.Attr(arc->name, class_side->path()[0]);
      if (as.chain_depth_max > 0) {
        best = std::max(best, as.chain_depth_max);
      }
    }
  }
  return best > 0 ? best : kDefaultFixIterations;
}

Optimizer::Optimizer(Database* db, const Stats* stats, const CostModel* cost,
                     OptimizerOptions options)
    : db_(db), stats_(stats), cost_(cost), options_(options) {
  RODIN_CHECK(db != nullptr && stats != nullptr && cost != nullptr,
              "null optimizer inputs");
}

OptimizeResult Optimizer::Optimize(const QueryGraph& query) {
  return Optimize(query, ObsSink{});
}

OptimizeResult Optimizer::Optimize(const QueryGraph& query,
                                   const ObsSink& hooks) {
  OptimizeResult result;
  OptContext ctx;
  ctx.db = db_;
  ctx.stats = stats_;
  ctx.cost = cost_;
  ctx.rng = Rng(options_.seed);
  ctx.tracer = hooks.tracer;
  ctx.decisions = hooks.decisions;
  ctx.collect_decisions = hooks.decisions != nullptr;
  ctx.query = options_.query;

  obs::Tracer* tracer = hooks.tracer;
  uint64_t span = 0;

  const Schema& schema = db_->schema();

  // --- Stage 1: rewrite -------------------------------------------------------
  if (Status s = CheckStageBudget(options_, 1); !s.ok()) {
    result.status = std::move(s);
    return result;
  }
  if (tracer != nullptr) span = tracer->Begin("rewrite", "optimizer");
  auto t0 = std::chrono::steady_clock::now();
  RewrittenGraph rewritten = Rewrite(query, schema, options_.fold_views);
  if (!rewritten.ok()) {
    result.status = Status::Error(Status::Code::kOptimize,
                                  Join(rewritten.errors, "; "));
    if (tracer != nullptr) tracer->End(span);
    return result;
  }
  result.stages.push_back(StageReport{"rewrite", "entire query (graph)",
                                      "irrevocable", "Fix, Union",
                                      MicrosSince(t0), 0});
  if (tracer != nullptr) {
    tracer->AddArg(span, "views",
                   StrFormat("%zu", rewritten.views.size()));
    tracer->End(span);
  }

  // --- Stage 2: translate -----------------------------------------------------
  // One NormalizedSPJ per predicate node, bottom-up over views.
  if (Status s = CheckStageBudget(options_, 2); !s.ok()) {
    result.status = std::move(s);
    return result;
  }
  if (tracer != nullptr) span = tracer->Begin("translate", "optimizer");
  t0 = std::chrono::steady_clock::now();
  struct ViewWork {
    const ViewDef* view;
    std::vector<NormalizedSPJ> base;
    std::vector<NormalizedSPJ> rec;
  };
  std::vector<ViewWork> work;
  size_t steps_total = 0;
  for (const ViewDef& view : rewritten.views) {
    ViewWork w;
    w.view = &view;
    for (const PredicateNode* p : view.base) {
      w.base.push_back(Translate(*p, *rewritten.graph, schema, ctx));
      steps_total += w.base.back().steps.size();
    }
    for (const PredicateNode* p : view.rec) {
      w.rec.push_back(Translate(*p, *rewritten.graph, schema, ctx, view.name));
      steps_total += w.rec.back().steps.size();
    }
    work.push_back(std::move(w));
  }
  result.stages.push_back(StageReport{
      "translate", "one arc", "cost-based", "IJ, PIJ",
      MicrosSince(t0), steps_total});
  if (tracer != nullptr) {
    tracer->AddArg(span, "steps", StrFormat("%zu", steps_total));
    tracer->End(span);
  }

  // --- Stage 3: generatePT -----------------------------------------------------
  if (Status s = CheckStageBudget(options_, 3); !s.ok()) {
    result.status = std::move(s);
    return result;
  }
  if (tracer != nullptr) span = tracer->Begin("generatePT", "optimizer");
  t0 = std::chrono::steady_clock::now();
  const size_t explored_before = ctx.plans_explored;
  ViewPlans view_plans;
  std::vector<PTPtr> owned_plans;
  PTPtr answer_plan;
  for (ViewWork& w : work) {
    auto gen_union = [&](std::vector<NormalizedSPJ>& spjs) -> PTPtr {
      std::vector<PTPtr> parts;
      for (NormalizedSPJ& spj : spjs) {
        GenResult r = GenerateSPJ(spj, ctx, options_.gen_strategy, view_plans);
        parts.push_back(std::move(r.plan));
      }
      if (parts.size() == 1) return std::move(parts[0]);
      return MakeUnion(std::move(parts));
    };
    PTPtr plan = gen_union(w.base);
    if (w.view->recursive) {
      PTPtr rec = gen_union(w.rec);
      PTPtr fix = MakeFix(w.view->name, std::move(plan), std::move(rec));
      fix->naive_fix = options_.naive_fixpoint;
      // Iterations from chain statistics (first recursive rule's delta var).
      std::string delta_var;
      for (const ArcInfo& a : w.rec[0].arcs) {
        if (a.is_self_delta) delta_var = a.var;
      }
      fix->est_iters = EstimateFixIters(w.rec[0], delta_var, *stats_);
      plan = std::move(fix);
    }
    cost_->Annotate(plan.get());
    if (w.view->name == rewritten.graph->answer) {
      answer_plan = std::move(plan);
    } else {
      owned_plans.push_back(std::move(plan));
      view_plans[w.view->name] = owned_plans.back().get();
    }
  }
  if (answer_plan == nullptr) {
    result.status = Status::Error(Status::Code::kOptimize,
                                  "no plan produced for the answer");
    if (tracer != nullptr) tracer->End(span);
    return result;
  }
  result.stages.push_back(StageReport{
      "generatePT", "one predicate node", GenStrategyName(options_.gen_strategy),
      "EJ, Sel", MicrosSince(t0), ctx.plans_explored - explored_before});
  if (tracer != nullptr) {
    tracer->AddArg(span, "plans_explored",
                   StrFormat("%zu", ctx.plans_explored - explored_before));
    tracer->AddArg(span, "strategy", GenStrategyName(options_.gen_strategy));
    tracer->End(span);
  }

  // --- Stage 4: transformPT ----------------------------------------------------
  // A budget tripping at (or forced at) this boundary does not fail the run:
  // a costed plan already exists, so transformPT degrades to its anytime
  // path — compare the alternatives it has, skip the search.
  const bool force_truncate = !CheckStageBudget(options_, 4).ok();
  if (tracer != nullptr) span = tracer->Begin("transformPT", "optimizer");
  t0 = std::chrono::steady_clock::now();
  const size_t explored_before_t = ctx.plans_explored;
  TransformResult tr =
      TransformPT(std::move(answer_plan), ctx, options_.transform,
                  options_.search_threads, force_truncate);
  result.stages.push_back(StageReport{
      "transformPT", "entire query (PT)",
      StrFormat("cost-based + %s", RandStrategyName(options_.transform.rand)),
      "none", MicrosSince(t0), ctx.plans_explored - explored_before_t,
      tr.truncated});
  if (tracer != nullptr) {
    tracer->AddArg(span, "plans_explored",
                   StrFormat("%zu", ctx.plans_explored - explored_before_t));
    tracer->AddArg(span, "final_cost", tr.cost);
    tracer->End(span);
  }
  {
    static obs::Counter* opt_runs =
        obs::MetricsRegistry::Global().GetCounter("rodin.optimizer.runs");
    static obs::Counter* opt_plans = obs::MetricsRegistry::Global().GetCounter(
        "rodin.optimizer.plans_explored");
    opt_runs->Add(1);
    opt_plans->Add(ctx.plans_explored);
  }

  result.plan = std::move(tr.plan);
  result.cost = tr.cost;
  result.pushed_sel = tr.pushed_sel;
  result.pushed_join = tr.pushed_join;
  result.pushed_proj = tr.pushed_proj;
  result.pushed_variant_cost = tr.pushed_variant_cost;
  result.unpushed_variant_cost = tr.unpushed_variant_cost;
  result.plans_explored = ctx.plans_explored;
  return result;
}

}  // namespace rodin
