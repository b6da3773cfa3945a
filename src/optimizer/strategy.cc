#include "optimizer/strategy.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace rodin {

namespace {

bool Evaluable(const PTNode& plan, const ExprPtr& e) {
  if (e == nullptr) return true;
  if (e->kind() == ExprKind::kVarPath) {
    int col = -1;
    std::vector<std::string> rest;
    return plan.ResolveVarPath(e->var(), e->path(), &col, &rest);
  }
  for (const ExprPtr& c : e->children()) {
    if (!Evaluable(plan, c)) return false;
  }
  return true;
}

// Splits pred's conjuncts into (probe-compatible eq conjunct on
// entity.attr-with-index, everything else). Used by the EJ algo toggle.
bool FindIndexableJoinConjunct(const PTNode& ej, OptContext& ctx,
                               const BTreeIndex** index, std::string* attr) {
  const PTNode& inner = *ej.children[1];
  if (inner.kind != PTKind::kEntity || ej.pred == nullptr) return false;
  for (const ExprPtr& c : ej.pred->Conjuncts()) {
    if (c->kind() != ExprKind::kCompare ||
        c->compare_op() != CompareOp::kEq) {
      continue;
    }
    auto inner_side = [&](const ExprPtr& e) {
      return e->kind() == ExprKind::kVarPath && e->var() == inner.binding &&
             e->path().size() == 1;
    };
    const ExprPtr& l = c->children()[0];
    const ExprPtr& r = c->children()[1];
    const ExprPtr* in = nullptr;
    const ExprPtr* out = nullptr;
    if (inner_side(l) && r->FreeVars().count(inner.binding) == 0) {
      in = &l;
      out = &r;
    } else if (inner_side(r) && l->FreeVars().count(inner.binding) == 0) {
      in = &r;
      out = &l;
    } else {
      continue;
    }
    if (!Evaluable(*ej.children[0], *out)) continue;
    const BTreeIndex* idx =
        ctx.db->FindSelIndex(inner.entity.extent, (*in)->path()[0]);
    if (idx == nullptr) continue;
    *index = idx;
    *attr = (*in)->path()[0];
    return true;
  }
  return false;
}

std::vector<Rule> BuildMoves() {
  std::vector<Rule> moves;

  // Join commutativity (nested loop only; an index join is directional).
  moves.emplace_back("swap-ej", [](PTPtr& site, OptContext&) {
    PTNode* n = site.get();
    if (n->kind != PTKind::kEJ || n->algo != JoinAlgo::kNestedLoop) {
      return false;
    }
    std::swap(n->children[0], n->children[1]);
    n->cols = n->children[0]->cols;
    n->cols.insert(n->cols.end(), n->children[1]->cols.begin(),
                   n->children[1]->cols.end());
    return true;
  });

  // Nested loop -> index join.
  moves.emplace_back("ej-to-index", [](PTPtr& site, OptContext& ctx) {
    PTNode* n = site.get();
    if (n->kind != PTKind::kEJ || n->algo != JoinAlgo::kNestedLoop) {
      return false;
    }
    const BTreeIndex* index = nullptr;
    std::string attr;
    if (!FindIndexableJoinConjunct(*n, ctx, &index, &attr)) return false;
    n->algo = JoinAlgo::kIndexJoin;
    n->join_index = index;
    n->join_index_attr = attr;
    return true;
  });

  // Index join -> nested loop.
  moves.emplace_back("ej-to-nl", [](PTPtr& site, OptContext&) {
    PTNode* n = site.get();
    if (n->kind != PTKind::kEJ || n->algo != JoinAlgo::kIndexJoin) {
      return false;
    }
    n->algo = JoinAlgo::kNestedLoop;
    n->join_index = nullptr;
    n->join_index_attr.clear();
    return true;
  });

  // Sequential scan -> index access for a Sel over an entity.
  moves.emplace_back("sel-to-index", [](PTPtr& site, OptContext& ctx) {
    PTNode* n = site.get();
    if (n->kind != PTKind::kSel || n->sel_access != SelAccess::kSeqScan ||
        n->pred == nullptr || n->children[0]->kind != PTKind::kEntity) {
      return false;
    }
    const PTNode& entity = *n->children[0];
    for (const ExprPtr& c : n->pred->Conjuncts()) {
      if (c->kind() != ExprKind::kCompare) continue;
      const ExprPtr& l = c->children()[0];
      const ExprPtr& r = c->children()[1];
      const ExprPtr* path = nullptr;
      if (l->kind() == ExprKind::kVarPath && r->kind() == ExprKind::kLiteral) {
        path = &l;
      } else if (r->kind() == ExprKind::kVarPath &&
                 l->kind() == ExprKind::kLiteral) {
        path = &r;
      } else {
        continue;
      }
      if ((*path)->var() != entity.binding || (*path)->path().size() != 1) {
        continue;
      }
      if (c->compare_op() == CompareOp::kNe) continue;
      const BTreeIndex* index =
          ctx.db->FindSelIndex(entity.entity.extent, (*path)->path()[0]);
      if (index == nullptr) continue;
      n->sel_access = c->compare_op() == CompareOp::kEq
                          ? SelAccess::kIndexEq
                          : SelAccess::kIndexRange;
      n->sel_index = index;
      n->sel_index_pred = c;
      return true;
    }
    return false;
  });

  // Index access -> sequential scan.
  moves.emplace_back("sel-to-scan", [](PTPtr& site, OptContext&) {
    PTNode* n = site.get();
    if (n->kind != PTKind::kSel || n->sel_access == SelAccess::kSeqScan) {
      return false;
    }
    n->sel_access = SelAccess::kSeqScan;
    n->sel_index = nullptr;
    n->sel_index_pred = nullptr;
    return true;
  });

  // Collapse an IJ chain into a PIJ (the §4.3 collapse action as a move).
  moves.emplace_back("collapse-ij", [](PTPtr& site, OptContext& ctx) {
    PTNode* n = site.get();
    if (n->kind != PTKind::kIJ || n->children[0]->kind != PTKind::kIJ) {
      return false;
    }
    // Gather the downward straight chain ending at `n`.
    std::vector<PTNode*> chain = {n};
    while (chain.back()->children[0]->kind == PTKind::kIJ &&
           chain.back()->src_var == chain.back()->children[0]->out_var) {
      chain.push_back(chain.back()->children[0].get());
    }
    if (chain.size() < 2) return false;
    std::reverse(chain.begin(), chain.end());
    for (size_t start = 0; start + 2 <= chain.size(); ++start) {
      std::vector<std::string> path;
      std::vector<std::string> out_vars;
      std::vector<const ClassDef*> classes;
      for (size_t i = start; i < chain.size(); ++i) {
        path.push_back(chain[i]->attr);
        out_vars.push_back(chain[i]->out_var);
        classes.push_back(chain[i]->target);
      }
      const PTNode& bottom_child = *chain[start]->children[0];
      const PTCol* root_col = bottom_child.FindCol(chain[start]->src_var);
      if (root_col == nullptr || root_col->cls == nullptr) continue;
      const PathIndex* index =
          ctx.db->FindPathIndex(root_col->cls->name(), path);
      if (index == nullptr) continue;
      site = MakePIJ(chain[start]->children[0]->Clone(), chain[start]->src_var,
                     path, out_vars, classes, index);
      return true;
    }
    return false;
  });

  // Expand a PIJ back into its IJ chain.
  moves.emplace_back("expand-pij", [](PTPtr& site, OptContext&) {
    PTNode* n = site.get();
    if (n->kind != PTKind::kPIJ) return false;
    for (const std::string& v : n->path_out_vars) {
      if (v.empty()) return false;
    }
    // Step classes from the node's columns.
    PTPtr cur = n->children[0]->Clone();
    std::string root = n->src_var;
    for (size_t i = 0; i < n->path.size(); ++i) {
      const PTCol* col = n->FindCol(n->path_out_vars[i]);
      const ClassDef* cls = col == nullptr ? nullptr : col->cls;
      cur = MakeIJ(std::move(cur), root, n->path[i], n->path_out_vars[i], cls);
      root = n->path_out_vars[i];
    }
    site = std::move(cur);
    return true;
  });

  // Join associativity: EJ(EJ(A,B), C) <-> EJ(A, EJ(B,C)). Conjuncts of
  // both joins are pooled and re-attached where they first become
  // evaluable; a rotation that strands a conjunct is rejected. Together
  // with swap-ej this lets the randomized strategies reach any join order.
  auto rotate = [](PTPtr& site, bool to_right) -> bool {
    PTNode* n = site.get();
    if (n->kind != PTKind::kEJ || n->algo != JoinAlgo::kNestedLoop) {
      return false;
    }
    const int nested_idx = to_right ? 0 : 1;
    PTNode* nested = n->children[nested_idx].get();
    if (nested->kind != PTKind::kEJ || nested->algo != JoinAlgo::kNestedLoop) {
      return false;
    }
    // Pieces: to_right: ((A ⋈ B) ⋈ C) -> (A ⋈ (B ⋈ C));
    //         to_left:  (A ⋈ (B ⋈ C)) -> ((A ⋈ B) ⋈ C).
    PTPtr a = to_right ? nested->children[0]->Clone()
                       : n->children[0]->Clone();
    PTPtr b_part = to_right ? nested->children[1]->Clone()
                            : nested->children[0]->Clone();
    PTPtr c_part = to_right ? n->children[1]->Clone()
                            : nested->children[1]->Clone();
    std::vector<ExprPtr> pool;
    for (const ExprPtr& p : {n->pred, nested->pred}) {
      if (p == nullptr) continue;
      for (const ExprPtr& c : p->Conjuncts()) pool.push_back(c);
    }
    PTPtr inner = to_right
                      ? MakeEJ(std::move(b_part), std::move(c_part), nullptr,
                               JoinAlgo::kNestedLoop)
                      : MakeEJ(std::move(a), std::move(b_part), nullptr,
                               JoinAlgo::kNestedLoop);
    std::vector<ExprPtr> inner_preds;
    std::vector<ExprPtr> outer_preds;
    for (const ExprPtr& c : pool) {
      (Evaluable(*inner, c) ? inner_preds : outer_preds).push_back(c);
    }
    inner->pred = ConjunctionOf(std::move(inner_preds));
    PTPtr outer = to_right
                      ? MakeEJ(std::move(a), std::move(inner), nullptr,
                               JoinAlgo::kNestedLoop)
                      : MakeEJ(std::move(inner), std::move(c_part), nullptr,
                               JoinAlgo::kNestedLoop);
    for (const ExprPtr& c : outer_preds) {
      if (!Evaluable(*outer, c)) return false;  // stranded conjunct
    }
    outer->pred = ConjunctionOf(std::move(outer_preds));
    site = std::move(outer);
    return true;
  };
  moves.emplace_back("rotate-ej-right", [rotate](PTPtr& site, OptContext&) {
    return rotate(site, true);
  });
  moves.emplace_back("rotate-ej-left", [rotate](PTPtr& site, OptContext&) {
    return rotate(site, false);
  });

  // Distribute a join over a union (the transformation the paper's
  // conclusion singles out as efficiently explorable in this framework):
  // EJ(Union(a, b, ...), c) -> Union(EJ(a, c), EJ(b, c), ...).
  moves.emplace_back("distribute-ej-over-union", [](PTPtr& site, OptContext&) {
    PTNode* n = site.get();
    if (n->kind != PTKind::kEJ || n->algo != JoinAlgo::kNestedLoop) {
      return false;
    }
    if (n->children[0]->kind != PTKind::kUnion) return false;
    PTNode* u = n->children[0].get();
    std::vector<PTPtr> parts;
    for (auto& member : u->children) {
      parts.push_back(MakeEJ(member->Clone(), n->children[1]->Clone(),
                             n->pred, JoinAlgo::kNestedLoop));
    }
    site = MakeUnion(std::move(parts));
    return true;
  });

  // Factor a union of structurally identical joins back together:
  // Union(EJ(a, c), EJ(b, c)) -> EJ(Union(a, b), c).
  moves.emplace_back("factor-union-of-ej", [](PTPtr& site, OptContext&) {
    PTNode* n = site.get();
    if (n->kind != PTKind::kUnion) return false;
    for (const auto& member : n->children) {
      if (member->kind != PTKind::kEJ ||
          member->algo != JoinAlgo::kNestedLoop) {
        return false;
      }
    }
    const PTNode& first = *n->children[0];
    const std::string inner_fp = first.children[1]->Fingerprint();
    const std::string pred_fp =
        first.pred == nullptr ? "" : first.pred->ToString();
    for (const auto& member : n->children) {
      if (member->children[1]->Fingerprint() != inner_fp) return false;
      const std::string p =
          member->pred == nullptr ? "" : member->pred->ToString();
      if (p != pred_fp) return false;
    }
    std::vector<PTPtr> outers;
    for (auto& member : n->children) {
      outers.push_back(member->children[0]->Clone());
    }
    site = MakeEJ(MakeUnion(std::move(outers)), first.children[1]->Clone(),
                  first.pred, JoinAlgo::kNestedLoop);
    return true;
  });

  // Move a selection below its unary child (Sel(X(c)) -> X(Sel(c))).
  moves.emplace_back("sel-down", [](PTPtr& site, OptContext&) {
    PTNode* n = site.get();
    if (n->kind != PTKind::kSel || n->sel_access != SelAccess::kSeqScan) {
      return false;
    }
    PTNode* child = n->children[0].get();
    if (child->kind != PTKind::kIJ && child->kind != PTKind::kPIJ) {
      return false;
    }
    if (!Evaluable(*child->children[0], n->pred)) return false;
    PTPtr inner_sel = MakeSel(child->children[0]->Clone(), n->pred);
    site = ReRootUnary(*child, std::move(inner_sel));
    return true;
  });

  // Move a selection above its unary parent (X(Sel(c)) -> Sel(X(c))).
  moves.emplace_back("sel-up", [](PTPtr& site, OptContext&) {
    PTNode* n = site.get();
    if (n->kind != PTKind::kIJ && n->kind != PTKind::kPIJ) return false;
    PTNode* child = n->children[0].get();
    if (child->kind != PTKind::kSel ||
        child->sel_access != SelAccess::kSeqScan) {
      return false;
    }
    PTPtr lifted = ReRootUnary(*n, child->children[0]->Clone());
    site = MakeSel(std::move(lifted), child->pred);
    return true;
  });

  return moves;
}

/// Picks a random applicable (site, move) pair and applies it. Ancestor
/// column lists are recomputed afterwards: a move may reorder a subtree's
/// output columns (swap-ej, rotations), and stale positional schemas above
/// it would silently rebind variables. Returns the applied move (nullptr
/// when no attempt fired).
const Rule* ApplyRandomMove(PTPtr& plan, OptContext& ctx) {
  const std::vector<Rule>& moves = LocalMoves();
  std::vector<PTPtr*> sites = CollectSubtrees(plan);
  constexpr size_t kAttempts = 24;
  for (size_t i = 0; i < kAttempts; ++i) {
    PTPtr* site = sites[ctx.rng.Below(sites.size())];
    const Rule& move = moves[ctx.rng.Below(moves.size())];
    if (move.ApplyAt(*site, ctx)) {
      RecomputePTCols(plan.get(), ctx.db->schema());
      return &move;
    }
  }
  return nullptr;
}

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvMix(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

// Simulated annealing schedule: the start temperature as a fraction of the
// start plan's cost, and the factor it cools by after each uphill draw.
constexpr double kSaInitialTemp = 0.1;
constexpr double kSaCooling = 0.9;

/// One improvement start: the II/SA move loop of paper §4.5 on `cur`
/// (annotated, cost `cur_cost`), promoting improvements into
/// (best, best_cost).
void ImproveMoves(PTPtr& cur, double& cur_cost, PTPtr& best, double& best_cost,
                  OptContext& ctx, const TransformOptions& options,
                  RestartReport* report) {
  double temp = kSaInitialTemp * std::max(1.0, cur_cost);
  size_t rejects = 0;
  for (size_t m = 0;
       m < options.rand_moves && rejects < options.rand_local_stop; ++m) {
    // Anytime checkpoint: (best, best_cost) always hold a complete costed
    // plan, so stopping mid-loop loses nothing but unexplored moves. A run
    // whose budget never trips takes the identical move stream as an
    // unbudgeted run (the poll consumes no RNG draws).
    if (ctx.query != nullptr && ctx.query->Expired()) {
      report->truncated = true;
      break;
    }
    PTPtr cand = cur->Clone();
    const Rule* move = ApplyRandomMove(cand, ctx);
    if (move == nullptr) {
      ++rejects;
      continue;
    }
    ++report->tried;
    cand->InvalidateEstimates();
    const double cand_cost = ctx.cost->Annotate(cand.get());
    ++ctx.plans_explored;
    bool accept = cand_cost < cur_cost;
    if (!accept && options.rand == RandStrategy::kSimulatedAnnealing &&
        temp > 0) {
      accept = ctx.rng.NextDouble() <
               std::exp((cur_cost - cand_cost) / temp);
      temp *= kSaCooling;
    }
    report->move_digest =
        FnvMix(report->move_digest, move->name().data(), move->name().size());
    const unsigned char accept_byte = accept ? 1 : 0;
    report->move_digest = FnvMix(report->move_digest, &accept_byte, 1);
    if (ctx.collect_decisions) {
      report->moves.push_back(
          MoveDecision{move->name(), cur_cost, cand_cost, accept, 0});
    }
    if (accept) {
      cur = std::move(cand);
      cur_cost = cand_cost;
      ++report->accepted;
      rejects = 0;
      if (cur_cost < best_cost) {
        best = cur->Clone();
        best_cost = cur_cost;
      }
    } else {
      ++rejects;
    }
  }
}

}  // namespace

const std::vector<Rule>& LocalMoves() {
  static const std::vector<Rule>& moves = *new std::vector<Rule>(BuildMoves());
  return moves;
}

ParallelStrategy::ParallelStrategy(size_t threads)
    : threads_(std::max<size_t>(1, threads)) {
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_);
}

ParallelStrategy::~ParallelStrategy() = default;

ParallelSearchReport ParallelStrategy::Improve(PTPtr& plan, OptContext& ctx,
                                               const TransformOptions& options) {
  ParallelSearchReport report;
  report.threads = threads_;
  report.initial_cost = ctx.cost->Annotate(plan.get());
  report.final_cost = report.initial_cost;
  if (options.rand == RandStrategy::kNone) return report;

  const size_t restarts = options.rand_restarts + 1;
  report.restarts = restarts;
  report.per_restart.resize(restarts);

  // One value of the caller's RNG seeds every restart stream, so the whole
  // search is a pure function of (seed, restart index).
  const uint64_t stream_base = ctx.rng.Next();
  const PTNode& origin = *plan;  // workers Clone() from it; read-only

  // The best-plan accumulator. `hint` is a monotonically decreasing copy of
  // best_cost read without the lock: restarts that cannot win (the common
  // case) never touch the mutex.
  std::mutex mu;
  PTPtr best;               // guarded by mu; null = input plan still best
  double best_cost = report.initial_cost;  // guarded by mu
  size_t best_restart = 0;  // guarded by mu
  std::atomic<double> hint{report.initial_cost};

  auto run_restart = [&](size_t r) {
    OptContext local;
    local.db = ctx.db;
    local.stats = ctx.stats;
    local.cost = ctx.cost;
    local.rng = Rng::Stream(stream_base, r);
    // Workers inherit the flag but never the sinks: decisions land in the
    // restart's report slot and merge deterministically below. They also
    // inherit the budget pointer (const, thread-safe to poll), so every
    // restart can truncate independently.
    local.collect_decisions = ctx.collect_decisions;
    local.query = ctx.query;
    RestartReport& rr = report.per_restart[r];  // index-keyed: no races

    PTPtr cur = origin.Clone();
    double cur_cost = local.cost->Annotate(cur.get());
    if (r > 0) {
      // Perturb away from the common start to diversify the basins.
      for (int i = 0; i < 3; ++i) ApplyRandomMove(cur, local);
      cur->InvalidateEstimates();
      cur_cost = local.cost->Annotate(cur.get());
    }
    rr.start_cost = cur_cost;

    PTPtr restart_best = cur->Clone();
    double restart_best_cost = cur_cost;
    ImproveMoves(cur, cur_cost, restart_best, restart_best_cost, local,
                 options, &rr);
    rr.final_cost = restart_best_cost;
    rr.plans_explored = local.plans_explored;

    // Publish. The winner is the lexicographic minimum over (cost, restart
    // index), which no completion order can change; `<=` in the pre-lock
    // check lets equal-cost lower-index restarts through to the tie-break.
    if (restart_best_cost <= hint.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(mu);
      const bool wins =
          restart_best_cost < best_cost ||
          (best != nullptr && restart_best_cost == best_cost &&
           r < best_restart);
      if (wins) {
        best = std::move(restart_best);
        best_cost = restart_best_cost;
        best_restart = r;
        hint.store(best_cost, std::memory_order_relaxed);
      }
    }
  };

  if (pool_ == nullptr) {
    for (size_t r = 0; r < restarts; ++r) run_restart(r);
  } else {
    for (size_t r = 0; r < restarts; ++r) {
      pool_->Submit([&run_restart, r] { run_restart(r); });
    }
    pool_->Wait();
  }

  for (size_t r = 0; r < report.per_restart.size(); ++r) {
    RestartReport& rr = report.per_restart[r];
    report.tried += rr.tried;
    report.accepted += rr.accepted;
    report.plans_explored += rr.plans_explored;
    report.truncated = report.truncated || rr.truncated;
    if (ctx.decisions != nullptr) {
      for (MoveDecision& d : rr.moves) {
        d.restart = r;
        ctx.decisions->moves.push_back(std::move(d));
      }
    }
  }
  ctx.plans_explored += report.plans_explored;

  // Search counters. Per-restart values are pure functions of (seed,
  // restart index), so these totals are identical at any thread count.
  {
    static obs::Counter* tried = obs::MetricsRegistry::Global().GetCounter(
        "rodin.search.moves_tried");
    static obs::Counter* accepted = obs::MetricsRegistry::Global().GetCounter(
        "rodin.search.moves_accepted");
    static obs::Counter* rejected = obs::MetricsRegistry::Global().GetCounter(
        "rodin.search.moves_rejected");
    static obs::Counter* restarts_c = obs::MetricsRegistry::Global().GetCounter(
        "rodin.search.restarts");
    tried->Add(report.tried);
    accepted->Add(report.accepted);
    rejected->Add(report.tried - report.accepted);
    restarts_c->Add(report.restarts);
  }

  if (best != nullptr) plan = std::move(best);
  report.best_restart = best_restart;
  report.final_cost = ctx.cost->Annotate(plan.get());
  return report;
}

}  // namespace rodin
