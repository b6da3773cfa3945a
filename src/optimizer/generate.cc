#include "optimizer/generate.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "common/string_util.h"
#include "optimizer/strategy.h"

namespace rodin {

namespace {

/// Whether every variable-path reference of `e` resolves against `plan`.
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

/// Renames the plain output columns of a view plan to consumer-dotted names
/// by descending through Fix/Union to the arm projections.
void RenameCols(PTNode* node, const std::string& var) {
  if (node->kind == PTKind::kFix || node->kind == PTKind::kUnion) {
    for (auto& c : node->children) RenameCols(c.get(), var);
    node->cols = node->children[0]->cols;
    return;
  }
  RODIN_CHECK(node->kind == PTKind::kProj,
              "view plan must end in a projection");
  for (OutCol& c : node->proj) c.name = var + "." + c.name;
  for (PTCol& c : node->cols) c.name = var + "." + c.name;
}

/// One candidate plan during enumeration.
struct Candidate {
  PTPtr plan;
  uint32_t arc_mask = 0;
  uint64_t step_mask = 0;
  uint64_t conj_mask = 0;
  double cost = 0;
};

/// The enumeration engine shared by the three strategies.
class Generator {
 public:
  Generator(const NormalizedSPJ& spj, OptContext& ctx, const ViewPlans& views)
      : spj_(spj), ctx_(ctx), views_(views) {
    RODIN_CHECK(spj.arcs.size() <= 32, "too many arcs (max 32)");
    RODIN_CHECK(spj.steps.size() <= 64, "too many steps (max 64)");
    RODIN_CHECK(spj.conjuncts.size() <= 64, "too many conjuncts (max 64)");
  }

  GenResult Run(GenStrategy strategy);

 private:
  uint32_t all_arcs() const { return spj_.arcs.size() == 32
                                         ? 0xffffffffu
                                         : ((1u << spj_.arcs.size()) - 1); }
  uint64_t all_steps() const {
    return spj_.steps.size() == 64 ? ~0ull : ((1ull << spj_.steps.size()) - 1);
  }

  /// Applies every not-yet-consumed conjunct that became evaluable, as a Sel
  /// (the paper's eager `sel` action). Returns the new conjunct mask.
  uint64_t ApplyEagerSels(PTPtr& plan, uint64_t conj_mask) const {
    std::vector<ExprPtr> ready;
    for (size_t i = 0; i < spj_.conjuncts.size(); ++i) {
      if ((conj_mask >> i) & 1) continue;
      if (Evaluable(*plan, spj_.conjuncts[i])) {
        ready.push_back(spj_.conjuncts[i]);
        conj_mask |= (1ull << i);
      }
    }
    if (!ready.empty()) {
      plan = MakeSel(std::move(plan), ConjunctionOf(std::move(ready)));
    }
    return conj_mask;
  }

  /// Builds the leaf variants of one arc. Each variant may consume
  /// conjuncts (index accesses) — eager sels then run on top.
  std::vector<Candidate> LeafVariants(size_t arc_idx) const;

  /// All extensions of a candidate; each has exactly one more unit.
  std::vector<Candidate> Extensions(const Candidate& cand) const;

  /// Finalizes a complete candidate with the output projection.
  Candidate Finish(const Candidate& cand) const;

  double CostOf(PTNode* plan) const {
    ++ctx_.plans_explored;
    return ctx_.cost->Annotate(plan);
  }

  const NormalizedSPJ& spj_;
  OptContext& ctx_;
  const ViewPlans& views_;
};

std::vector<Candidate> Generator::LeafVariants(size_t arc_idx) const {
  const ArcInfo& arc = spj_.arcs[arc_idx];
  std::vector<Candidate> out;

  auto finish_variant = [&](PTPtr plan, uint64_t conj_mask) {
    Candidate c;
    c.conj_mask = ApplyEagerSels(plan, conj_mask);
    c.plan = std::move(plan);
    c.arc_mask = 1u << arc_idx;
    c.cost = CostOf(c.plan.get());
    out.push_back(std::move(c));
  };

  if (arc.is_self_delta) {
    finish_variant(MakeDelta(arc.name, arc.view_cols), 0);
    return out;
  }

  if (arc.kind == NameKind::kDerived) {
    auto it = views_.find(arc.name);
    RODIN_CHECK(it != views_.end(), "consumer before producer view plan");
    finish_variant(InstantiateViewPlan(*it->second, arc.var), 0);
    return out;
  }

  // Stored extent: classes scan as oid-binding leaves; relations too
  // (their tuples are addressed by pseudo-oids, columns read on demand).
  const Extent* extent = ctx_.db->FindExtent(arc.name);
  RODIN_CHECK(extent != nullptr, "arc over unknown extent");
  const ClassDef* cls = arc.cls;

  // Polymorphic scan: an arc over a class with subclasses covers the union
  // of all concrete extents (Composer instances ARE Persons). Rows stay
  // statically typed as the declared class; subclass records carry the
  // inherited attributes at the same storage positions.
  if (arc.kind == NameKind::kClass) {
    const std::vector<const ClassDef*> concrete =
        ctx_.db->schema().ConcreteClassesOf(cls);
    if (concrete.size() > 1) {
      std::vector<PTPtr> parts;
      for (const ClassDef* sub : concrete) {
        const Extent* sub_extent = ctx_.db->FindExtent(sub->name());
        for (uint16_t h = 0; h < sub_extent->num_hfrags(); ++h) {
          parts.push_back(
              MakeEntity(EntityRef{sub->name(), 0, h}, arc.var, cls));
        }
      }
      // Index-access variants are not offered on polymorphic scans (a
      // selection index covers one extent only).
      finish_variant(parts.size() == 1 ? std::move(parts[0])
                                       : MakeUnion(std::move(parts)),
                     0);
      return out;
    }
  }

  // Horizontal fragments: prune with an equality conjunct on the
  // partitioning attribute, else union all fragments.
  const HorizontalSpec* hspec = ctx_.db->config().FindHorizontal(arc.name);
  int pruned_hfrag = -1;
  if (hspec != nullptr && extent->num_hfrags() > 1) {
    for (const ExprPtr& c : spj_.conjuncts) {
      if (c->kind() != ExprKind::kCompare ||
          c->compare_op() != CompareOp::kEq) {
        continue;
      }
      const ExprPtr& l = c->children()[0];
      const ExprPtr& r = c->children()[1];
      const ExprPtr* path = nullptr;
      const ExprPtr* lit = nullptr;
      if (l->kind() == ExprKind::kVarPath && r->kind() == ExprKind::kLiteral) {
        path = &l;
        lit = &r;
      } else if (r->kind() == ExprKind::kVarPath &&
                 l->kind() == ExprKind::kLiteral) {
        path = &r;
        lit = &l;
      } else {
        continue;
      }
      if ((*path)->var() == arc.var && (*path)->path().size() == 1 &&
          (*path)->path()[0] == hspec->attr) {
        pruned_hfrag = static_cast<int>((*lit)->literal().Hash() %
                                        hspec->num_fragments);
        break;
      }
    }
  }

  auto make_entity = [&](uint16_t h) {
    return MakeEntity(EntityRef{arc.name, 0, h}, arc.var, cls);
  };

  PTPtr scan;
  if (extent->num_hfrags() > 1 && pruned_hfrag < 0) {
    std::vector<PTPtr> parts;
    for (uint16_t h = 0; h < extent->num_hfrags(); ++h) {
      parts.push_back(make_entity(h));
    }
    scan = MakeUnion(std::move(parts));
  } else {
    scan = make_entity(pruned_hfrag < 0 ? 0
                                        : static_cast<uint16_t>(pruned_hfrag));
  }
  finish_variant(std::move(scan), 0);

  // Index-access variants: one per (conjunct, index) pair applicable to
  // this arc's single-attribute predicates.
  for (size_t ci = 0; ci < spj_.conjuncts.size(); ++ci) {
    const ExprPtr& c = spj_.conjuncts[ci];
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
    if ((*path)->var() != arc.var || (*path)->path().size() != 1) continue;
    const BTreeIndex* index =
        ctx_.db->FindSelIndex(arc.name, (*path)->path()[0]);
    if (index == nullptr) continue;
    const bool eq = c->compare_op() == CompareOp::kEq;
    if (!eq && c->compare_op() == CompareOp::kNe) continue;

    // Index access covers the whole extent; incompatible with fragment
    // pruning subtleties — the index spans all fragments.
    PTPtr leaf = make_entity(0);
    PTPtr sel = MakeSel(std::move(leaf), c);
    sel->sel_access = eq ? SelAccess::kIndexEq : SelAccess::kIndexRange;
    sel->sel_index = index;
    sel->sel_index_pred = c;
    finish_variant(std::move(sel), 1ull << ci);
  }
  return out;
}

std::vector<Candidate> Generator::Extensions(const Candidate& cand) const {
  std::vector<Candidate> out;

  // --- Step extensions (IJ) --------------------------------------------------
  for (size_t si = 0; si < spj_.steps.size(); ++si) {
    if ((cand.step_mask >> si) & 1) continue;
    const StepInfo& s = spj_.steps[si];
    int col = -1;
    std::vector<std::string> rest;
    if (!cand.plan->ResolveVarPath(s.root, {s.attr}, &col, &rest)) continue;
    Candidate next;
    next.arc_mask = cand.arc_mask;
    next.step_mask = cand.step_mask | (1ull << si);
    next.conj_mask = cand.conj_mask;
    PTPtr plan =
        MakeIJ(cand.plan->Clone(), s.root, s.attr, s.out_var, s.target);
    next.conj_mask = ApplyEagerSels(plan, next.conj_mask);
    next.plan = std::move(plan);
    next.cost = CostOf(next.plan.get());
    out.push_back(std::move(next));
  }

  // --- Inverse-join step extensions -------------------------------------------
  // A step x.A -> w whose attribute has a declared inverse (w.B = x, §2.1)
  // can instead scan the target class and join explicitly — cheaper when
  // dereferencing A is expensive (no clustering, thrashing buffer) or the
  // target side is already restricted.
  for (size_t si = 0; si < spj_.steps.size(); ++si) {
    if ((cand.step_mask >> si) & 1) continue;
    const StepInfo& st = spj_.steps[si];
    // Only true attribute traversals from an object column (a dotted
    // derived column already holds the reference; nothing to invert).
    int col = -1;
    std::vector<std::string> rest;
    if (!cand.plan->ResolveVarPath(st.root, {st.attr}, &col, &rest)) continue;
    if (rest.empty()) continue;
    const ClassDef* root_cls = cand.plan->cols[col].cls;
    if (root_cls == nullptr || st.target == nullptr) continue;
    const ClassDef* inv_cls = nullptr;
    std::string inv_attr;
    if (!ctx_.db->schema().FindInverse(root_cls, st.attr, &inv_cls,
                                       &inv_attr)) {
      continue;
    }
    ExprPtr pred = Expr::Eq(Expr::Path(st.out_var, {inv_attr}),
                            Expr::Path(st.root));
    PTPtr leaf = MakeEntity(EntityRef{inv_cls->name(), 0, 0}, st.out_var,
                            st.target);
    PTPtr ej = MakeEJ(cand.plan->Clone(), std::move(leaf), pred,
                      JoinAlgo::kNestedLoop);
    Candidate next;
    next.arc_mask = cand.arc_mask;
    next.step_mask = cand.step_mask | (1ull << si);
    PTPtr plan = std::move(ej);
    next.conj_mask = ApplyEagerSels(plan, cand.conj_mask);
    next.plan = std::move(plan);
    next.cost = CostOf(next.plan.get());
    out.push_back(std::move(next));
  }

  // --- PIJ extensions (collapse a pending chain onto a path index) -----------
  for (const auto& pidx : ctx_.db->path_indexes()) {
    // Locate the chain of pending steps matching this index.
    // First step: root bound in plan, class matches index root.
    for (size_t s0 = 0; s0 < spj_.steps.size(); ++s0) {
      if ((cand.step_mask >> s0) & 1) continue;
      const StepInfo& first = spj_.steps[s0];
      if (first.attr != pidx->path()[0]) continue;
      const PTCol* root_col = cand.plan->FindCol(first.root);
      if (root_col == nullptr || root_col->cls == nullptr ||
          root_col->cls->name() != pidx->root_class()) {
        continue;
      }
      // Chase the remaining steps of the index path.
      std::vector<size_t> chain = {s0};
      std::string cur = first.out_var;
      bool ok = true;
      for (size_t pi = 1; pi < pidx->path().size(); ++pi) {
        bool found = false;
        for (size_t si = 0; si < spj_.steps.size(); ++si) {
          if ((cand.step_mask >> si) & 1) continue;
          const StepInfo& s = spj_.steps[si];
          if (s.root == cur && s.attr == pidx->path()[pi]) {
            chain.push_back(si);
            cur = s.out_var;
            found = true;
            break;
          }
        }
        if (!found) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;

      std::vector<std::string> out_vars;
      std::vector<const ClassDef*> classes;
      uint64_t consumed = 0;
      for (size_t si : chain) {
        out_vars.push_back(spj_.steps[si].out_var);
        classes.push_back(spj_.steps[si].target);
        consumed |= (1ull << si);
      }
      Candidate next;
      next.arc_mask = cand.arc_mask;
      next.step_mask = cand.step_mask | consumed;
      next.conj_mask = cand.conj_mask;
      PTPtr plan = MakePIJ(cand.plan->Clone(), first.root,
                           pidx->path(), out_vars, classes, pidx.get());
      next.conj_mask = ApplyEagerSels(plan, next.conj_mask);
      next.plan = std::move(plan);
      next.cost = CostOf(next.plan.get());
      out.push_back(std::move(next));
    }
  }

  // --- Arc extensions (EJ) ----------------------------------------------------
  // First pass: arcs connected to the current plan by some conjunct.
  std::vector<size_t> connected;
  std::vector<size_t> disconnected;
  for (size_t ai = 0; ai < spj_.arcs.size(); ++ai) {
    if ((cand.arc_mask >> ai) & 1) continue;
    const std::string& var = spj_.arcs[ai].var;
    bool linked = false;
    for (size_t ci = 0; ci < spj_.conjuncts.size(); ++ci) {
      if ((cand.conj_mask >> ci) & 1) continue;
      const std::set<std::string> vars = spj_.conjuncts[ci]->FreeVars();
      if (vars.count(var) == 0) continue;
      // Does it also reference something already bound?
      for (const std::string& v : vars) {
        if (v != var && cand.plan->HasCol(v)) {
          linked = true;
          break;
        }
        // Dotted columns of derived arcs.
        if (v != var) {
          for (const PTCol& c : cand.plan->cols) {
            if (c.name == v || c.name.rfind(v + ".", 0) == 0) {
              linked = true;
              break;
            }
          }
        }
        if (linked) break;
      }
      if (linked) break;
    }
    (linked ? connected : disconnected).push_back(ai);
  }
  const std::vector<size_t>& arc_choices =
      connected.empty() ? disconnected : connected;

  for (size_t ai : arc_choices) {
    for (Candidate& leaf : LeafVariants(ai)) {
      // Conjunct bookkeeping: the leaf variant may already have consumed
      // some conjuncts (index access).
      const uint64_t base_mask = cand.conj_mask | leaf.conj_mask;

      // Nested-loop join; the join predicate is attached at the EJ.
      {
        PTPtr probe = MakeEJ(cand.plan->Clone(), leaf.plan->Clone(), nullptr,
                             JoinAlgo::kNestedLoop);
        std::vector<ExprPtr> join_preds;
        uint64_t conj_mask = base_mask;
        for (size_t ci = 0; ci < spj_.conjuncts.size(); ++ci) {
          if ((conj_mask >> ci) & 1) continue;
          if (Evaluable(*probe, spj_.conjuncts[ci])) {
            join_preds.push_back(spj_.conjuncts[ci]);
            conj_mask |= (1ull << ci);
          }
        }
        probe->pred = ConjunctionOf(join_preds);
        Candidate next;
        next.arc_mask = cand.arc_mask | (1u << ai);
        next.step_mask = cand.step_mask;
        PTPtr plan = std::move(probe);
        next.conj_mask = ApplyEagerSels(plan, conj_mask);
        next.plan = std::move(plan);
        next.cost = CostOf(next.plan.get());
        out.push_back(std::move(next));
      }

      // Index-join variant: inner must be a bare entity leaf and some
      // equality conjunct inner.attr = <outer expr> must have an index.
      if (leaf.plan->kind == PTKind::kEntity &&
          spj_.arcs[ai].kind != NameKind::kDerived) {
        for (size_t ci = 0; ci < spj_.conjuncts.size(); ++ci) {
          if ((base_mask >> ci) & 1) continue;
          const ExprPtr& c = spj_.conjuncts[ci];
          if (c->kind() != ExprKind::kCompare ||
              c->compare_op() != CompareOp::kEq) {
            continue;
          }
          const std::string& var = spj_.arcs[ai].var;
          auto inner_side = [&](const ExprPtr& e) {
            return e->kind() == ExprKind::kVarPath && e->var() == var &&
                   e->path().size() == 1;
          };
          const ExprPtr& l = c->children()[0];
          const ExprPtr& r = c->children()[1];
          const ExprPtr* inner = nullptr;
          const ExprPtr* outer = nullptr;
          if (inner_side(l) && r->FreeVars().count(var) == 0) {
            inner = &l;
            outer = &r;
          } else if (inner_side(r) && l->FreeVars().count(var) == 0) {
            inner = &r;
            outer = &l;
          } else {
            continue;
          }
          if (!Evaluable(*cand.plan, *outer)) continue;
          const BTreeIndex* index =
              ctx_.db->FindSelIndex(spj_.arcs[ai].name, (*inner)->path()[0]);
          if (index == nullptr) continue;

          PTPtr ej = MakeEJ(cand.plan->Clone(), leaf.plan->Clone(), c,
                            JoinAlgo::kIndexJoin);
          ej->join_index = index;
          ej->join_index_attr = (*inner)->path()[0];
          uint64_t conj_mask = base_mask | (1ull << ci);
          // Remaining evaluable conjuncts ride along in the EJ predicate.
          std::vector<ExprPtr> extra = {c};
          for (size_t cj = 0; cj < spj_.conjuncts.size(); ++cj) {
            if ((conj_mask >> cj) & 1) continue;
            if (Evaluable(*ej, spj_.conjuncts[cj])) {
              extra.push_back(spj_.conjuncts[cj]);
              conj_mask |= (1ull << cj);
            }
          }
          ej->pred = ConjunctionOf(extra);
          Candidate next;
          next.arc_mask = cand.arc_mask | (1u << ai);
          next.step_mask = cand.step_mask;
          PTPtr plan = std::move(ej);
          next.conj_mask = ApplyEagerSels(plan, conj_mask);
          next.plan = std::move(plan);
          next.cost = CostOf(next.plan.get());
          out.push_back(std::move(next));
        }
      }
    }
  }
  return out;
}

Candidate Generator::Finish(const Candidate& cand) const {
  Candidate done;
  done.arc_mask = cand.arc_mask;
  done.step_mask = cand.step_mask;
  done.conj_mask = cand.conj_mask;
  RODIN_CHECK(cand.conj_mask == (spj_.conjuncts.size() == 64
                                     ? ~0ull
                                     : ((1ull << spj_.conjuncts.size()) - 1)),
              "unconsumed conjuncts in a complete plan");
  done.plan = MakeProj(cand.plan->Clone(), spj_.outs, spj_.out_cols,
                       /*dedup=*/true);
  done.cost = CostOf(done.plan.get());
  return done;
}

GenResult Generator::Run(GenStrategy strategy) {
  const size_t explored_before = ctx_.plans_explored;
  GenResult result;

  const uint32_t target_arcs = all_arcs();
  const uint64_t target_steps = all_steps();
  auto complete = [&](const Candidate& c) {
    return c.arc_mask == target_arcs && c.step_mask == target_steps;
  };

  if (strategy == GenStrategy::kGreedy ||
      strategy == GenStrategy::kRandomized) {
    // Cheapest leaf, then cheapest extension until complete.
    Candidate cur;
    double best = -1;
    for (size_t ai = 0; ai < spj_.arcs.size(); ++ai) {
      for (Candidate& leaf : LeafVariants(ai)) {
        if (best < 0 || leaf.cost < best) {
          best = leaf.cost;
          cur = std::move(leaf);
        }
      }
    }
    while (!complete(cur)) {
      std::vector<Candidate> exts = Extensions(cur);
      RODIN_CHECK(!exts.empty(), "greedy generator stuck");
      size_t pick = 0;
      for (size_t i = 1; i < exts.size(); ++i) {
        if (exts[i].cost < exts[pick].cost) pick = i;
      }
      cur = std::move(exts[pick]);
    }
    Candidate done = Finish(cur);
    result.plan = std::move(done.plan);
    result.cost = done.cost;
    if (strategy == GenStrategy::kRandomized) {
      // Transformational spj optimization ([LV91]'s randomized strategy on
      // the generation search space): improve the greedy plan with the
      // local-move neighbourhood.
      TransformOptions options;
      options.rand = RandStrategy::kIterativeImprovement;
      options.rand_moves = 200;
      ParallelStrategy(1).Improve(result.plan, ctx_, options);
      result.cost = ctx_.cost->Annotate(result.plan.get());
    }
    result.plans_explored = ctx_.plans_explored - explored_before;
    return result;
  }

  if (strategy == GenStrategy::kDP) {
    // System-R style: best plan per (arc_mask, step_mask) state.
    std::map<std::pair<uint32_t, uint64_t>, Candidate> best;
    auto consider = [&](Candidate&& c) {
      auto key = std::make_pair(c.arc_mask, c.step_mask);
      auto it = best.find(key);
      if (it == best.end() || c.cost < it->second.cost) {
        best[key] = std::move(c);
      }
    };
    for (size_t ai = 0; ai < spj_.arcs.size(); ++ai) {
      for (Candidate& leaf : LeafVariants(ai)) consider(std::move(leaf));
    }
    // Expand states in increasing unit count.
    const size_t total_units = spj_.arcs.size() + spj_.steps.size();
    for (size_t units = 1; units < total_units; ++units) {
      std::vector<const Candidate*> frontier;
      for (const auto& [key, c] : best) {
        const size_t n = static_cast<size_t>(__builtin_popcount(key.first)) +
                         static_cast<size_t>(__builtin_popcountll(key.second));
        if (n == units) frontier.push_back(&c);
      }
      for (const Candidate* c : frontier) {
        for (Candidate& ext : Extensions(*c)) consider(std::move(ext));
      }
    }
    auto it = best.find({target_arcs, target_steps});
    RODIN_CHECK(it != best.end(), "DP generator found no complete plan");
    Candidate done = Finish(it->second);
    result.plan = std::move(done.plan);
    result.cost = done.cost;
    result.plans_explored = ctx_.plans_explored - explored_before;
    return result;
  }

  // Exhaustive: depth-first over all construction orders, keeping the best
  // completed plan. (The KZ88-style strategy the paper contrasts with.)
  Candidate best_done;
  bool have_best = false;
  std::vector<Candidate> stack;
  for (size_t ai = 0; ai < spj_.arcs.size(); ++ai) {
    for (Candidate& leaf : LeafVariants(ai)) stack.push_back(std::move(leaf));
  }
  size_t expansions = 0;
  constexpr size_t kMaxExpansions = 200000;
  while (!stack.empty() && expansions < kMaxExpansions) {
    Candidate cur = std::move(stack.back());
    stack.pop_back();
    if (complete(cur)) {
      Candidate done = Finish(cur);
      if (!have_best || done.cost < best_done.cost) {
        best_done = std::move(done);
        have_best = true;
      }
      continue;
    }
    ++expansions;
    for (Candidate& ext : Extensions(cur)) {
      if (have_best && ext.cost >= best_done.cost) continue;  // prune
      stack.push_back(std::move(ext));
    }
  }
  RODIN_CHECK(have_best, "exhaustive generator found no plan");
  result.plan = std::move(best_done.plan);
  result.cost = best_done.cost;
  result.plans_explored = ctx_.plans_explored - explored_before;
  return result;
}

}  // namespace

PTPtr InstantiateViewPlan(const PTNode& view_plan, const std::string& var) {
  PTPtr clone = view_plan.Clone();
  RenameCols(clone.get(), var);
  return clone;
}

GenResult GenerateSPJ(const NormalizedSPJ& spj, OptContext& ctx,
                      GenStrategy strategy, const ViewPlans& views) {
  Generator gen(spj, ctx, views);
  return gen.Run(strategy);
}

}  // namespace rodin
