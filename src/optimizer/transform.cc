#include "optimizer/transform.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "common/string_util.h"
#include "obs/decision.h"
#include "obs/trace.h"
#include "optimizer/strategy.h"

namespace rodin {

namespace {

bool IsChainKind(PTKind kind) {
  return kind == PTKind::kSel || kind == PTKind::kIJ || kind == PTKind::kPIJ;
}

/// Rebuilds a unary node of the same shape as `proto` on a new child.
PTPtr ReRootImpl(const PTNode& proto, PTPtr child) {
  switch (proto.kind) {
    case PTKind::kSel: {
      PTPtr n = MakeSel(std::move(child), proto.pred);
      n->sel_access = proto.sel_access;
      n->sel_index = proto.sel_index;
      n->sel_index_pred = proto.sel_index_pred;
      return n;
    }
    case PTKind::kIJ:
      return MakeIJ(std::move(child), proto.src_var, proto.attr, proto.out_var,
                    proto.target);
    case PTKind::kPIJ: {
      std::vector<const ClassDef*> classes;
      for (const std::string& v : proto.path_out_vars) {
        const ClassDef* cls = nullptr;
        if (!v.empty()) {
          const PTCol* col = proto.FindCol(v);
          if (col != nullptr) cls = col->cls;
        }
        classes.push_back(cls);
      }
      return MakePIJ(std::move(child), proto.src_var, proto.path,
                     proto.path_out_vars, classes, proto.path_index);
    }
    case PTKind::kProj:
      return MakeProj(std::move(child), proto.proj, proto.cols, proto.dedup);
    default:
      RODIN_CHECK(false, "ReRoot on non-unary node");
      return nullptr;
  }
}

/// Output variables a chain node introduces.
std::vector<std::string> IntroducedVars(const PTNode& node) {
  std::vector<std::string> out;
  if (node.kind == PTKind::kIJ) out.push_back(node.out_var);
  if (node.kind == PTKind::kPIJ) {
    for (const std::string& v : node.path_out_vars) {
      if (!v.empty()) out.push_back(v);
    }
  }
  return out;
}

/// Column names a node's own expressions resolve against its child.
/// Returns resolved column names (not raw variable names).
void NodeColUses(const PTNode& node, std::set<std::string>* used) {
  const PTNode* child =
      node.children.empty() ? nullptr : node.children[0].get();
  auto use_expr = [&](const ExprPtr& e, const PTNode& against) {
    if (e == nullptr) return;
    for (const auto& [var, path] : e->VarPaths()) {
      int col = -1;
      std::vector<std::string> rest;
      if (against.ResolveVarPath(var, path, &col, &rest)) {
        used->insert(against.cols[col].name);
      }
    }
  };
  switch (node.kind) {
    case PTKind::kSel:
      if (child != nullptr) use_expr(node.pred, *child);
      break;
    case PTKind::kProj:
      for (const OutCol& c : node.proj) {
        if (child != nullptr) use_expr(c.expr, *child);
      }
      break;
    case PTKind::kEJ:
      use_expr(node.pred, node);  // spans both children
      break;
    case PTKind::kIJ: {
      if (child != nullptr) {
        int col = -1;
        std::vector<std::string> rest;
        if (child->ResolveVarPath(node.src_var, {node.attr}, &col, &rest)) {
          used->insert(child->cols[col].name);
        }
      }
      break;
    }
    case PTKind::kPIJ:
      used->insert(node.src_var);
      break;
    default:
      break;
  }
}

/// True if any node of `tree` (excluding the nodes in `exclude`) resolves a
/// reference onto one of `vars` (column names).
bool TreeUsesVars(const PTNode& tree, const std::set<const PTNode*>& exclude,
                  const std::set<std::string>& vars) {
  if (exclude.count(&tree) == 0) {
    std::set<std::string> used;
    NodeColUses(tree, &used);
    for (const std::string& v : used) {
      if (vars.count(v) > 0) return true;
    }
  }
  for (const auto& c : tree.children) {
    if (TreeUsesVars(*c, exclude, vars)) return true;
  }
  return false;
}

/// Finds the delta leaf of `fix_name` inside `tree` (nullptr if absent).
const PTNode* FindDelta(const PTNode& tree, const std::string& fix_name) {
  if (tree.kind == PTKind::kDelta && tree.fix_name == fix_name) return &tree;
  for (const auto& c : tree.children) {
    const PTNode* d = FindDelta(*c, fix_name);
    if (d != nullptr) return d;
  }
  return nullptr;
}

/// An arm of a Fix node must end (at its root) in a projection producing the
/// view columns. Returns it, descending through Unions.
const PTNode* ArmProj(const PTNode& arm) {
  if (arm.kind == PTKind::kProj) return &arm;
  if (arm.kind == PTKind::kUnion) return ArmProj(*arm.children[0]);
  return nullptr;
}

/// Verbatim-copy check (the paper's canPush / [KL86] condition): in the
/// recursive arm, the projection entry for fix column `col_name` must be a
/// plain copy of the corresponding delta column — only then does a filter on
/// that column commute with the fixpoint.
bool RecArmCopiesCol(const PTNode& fix, const std::string& col_name) {
  const PTNode& rec = *fix.children[1];
  const PTNode* proj = ArmProj(rec);
  if (proj == nullptr) return false;
  const PTNode* delta = FindDelta(rec, fix.fix_name);
  if (delta == nullptr) return false;
  // Position of the column in the fix output.
  int pos = -1;
  for (size_t i = 0; i < fix.cols.size(); ++i) {
    if (fix.cols[i].name == col_name) pos = static_cast<int>(i);
  }
  if (pos < 0 || pos >= static_cast<int>(delta->cols.size())) return false;
  // The projection entry with this name.
  const OutCol* entry = nullptr;
  for (const OutCol& c : proj->proj) {
    if (c.name == col_name) entry = &c;
  }
  if (entry == nullptr || entry->expr == nullptr) return false;
  if (entry->expr->kind() != ExprKind::kVarPath) return false;
  const PTNode& proj_child = *proj->children[0];
  int col = -1;
  std::vector<std::string> rest;
  if (!proj_child.ResolveVarPath(entry->expr->var(), entry->expr->path(), &col,
                                 &rest)) {
    return false;
  }
  return rest.empty() && proj_child.cols[col].name == delta->cols[pos].name;
}

/// Wraps `arm` (cloned) with the support chain + a selection (or a join),
/// then an identity projection back to the arm's columns.
PTPtr WrapArm(const PTNode& arm, const std::vector<const PTNode*>& support,
              const ExprPtr& pred, const PTNode* join_other, JoinAlgo algo,
              const BTreeIndex* join_index, const std::string& join_index_attr) {
  const std::vector<PTCol> arm_cols = arm.cols;
  PTPtr plan = arm.Clone();
  // Support nodes were collected top-down; apply bottom-up.
  for (auto it = support.rbegin(); it != support.rend(); ++it) {
    plan = ReRootUnary(**it, std::move(plan));
  }
  if (join_other != nullptr) {
    PTPtr ej = MakeEJ(std::move(plan), join_other->Clone(), pred, algo);
    ej->join_index = join_index;
    ej->join_index_attr = join_index_attr;
    plan = std::move(ej);
  } else if (pred != nullptr) {
    plan = MakeSel(std::move(plan), pred);
  }
  std::vector<OutCol> identity;
  for (const PTCol& c : arm_cols) {
    identity.push_back(OutCol{c.name, Expr::Path(c.name)});
  }
  return MakeProj(std::move(plan), std::move(identity), arm_cols,
                  /*dedup=*/true);
}

/// Walks the unary chain below `top` to a Fix; fills `chain` (nodes strictly
/// between, top-down). Returns the fix (or nullptr).
PTNode* ChainToFix(PTNode* top, std::vector<PTNode*>* chain) {
  PTNode* cur = top;
  while (true) {
    if (cur->kind == PTKind::kFix) return cur;
    if (!IsChainKind(cur->kind) || cur->children.empty()) return nullptr;
    if (cur != top) chain->push_back(cur);
    cur = cur->children[0].get();
  }
}

/// Collects, for selection pushing: the chain nodes supporting the
/// predicate's variables and the fix columns ultimately referenced.
/// Returns false if some reference cannot be traced to the fix output.
bool CollectSupport(const PTNode& below_sel, const ExprPtr& pred,
                    const std::vector<PTNode*>& chain, const PTNode& fix,
                    std::vector<const PTNode*>* support,
                    std::set<std::string>* fix_cols_used) {
  // Map out-var -> chain node.
  std::map<std::string, const PTNode*> producer;
  for (const PTNode* n : chain) {
    for (const std::string& v : IntroducedVars(*n)) producer[v] = n;
  }
  // Resolve each reference of the predicate against the Sel's input.
  std::set<const PTNode*> support_set;
  std::vector<std::string> frontier;
  for (const auto& [var, path] : pred->VarPaths()) {
    int col = -1;
    std::vector<std::string> rest;
    if (!below_sel.ResolveVarPath(var, path, &col, &rest)) return false;
    frontier.push_back(below_sel.cols[col].name);
  }
  std::set<std::string> visited;
  while (!frontier.empty()) {
    const std::string name = frontier.back();
    frontier.pop_back();
    if (!visited.insert(name).second) continue;
    if (fix.HasCol(name)) {
      fix_cols_used->insert(name);
      continue;
    }
    auto it = producer.find(name);
    if (it == producer.end()) return false;  // produced outside the chain
    if (support_set.insert(it->second).second) {
      // The producer's own source reference must be traced too.
      const PTNode& n = *it->second;
      const PTNode& child = *n.children[0];
      if (n.kind == PTKind::kIJ) {
        int col = -1;
        std::vector<std::string> rest;
        if (!child.ResolveVarPath(n.src_var, {n.attr}, &col, &rest)) {
          return false;
        }
        frontier.push_back(child.cols[col].name);
      } else if (n.kind == PTKind::kPIJ) {
        if (!child.HasCol(n.src_var)) return false;
        frontier.push_back(n.src_var);
      }
    }
  }
  // Keep chain order (top-down) for the support list.
  for (const PTNode* n : chain) {
    if (support_set.count(n) > 0) support->push_back(n);
  }
  return true;
}

/// Rebuilds the region between `site` (a Sel being pushed) and the fix:
/// keeps non-support chain nodes, drops the Sel and the support nodes, and
/// roots everything on `new_fix`.
PTPtr RebuildUpper(const std::vector<PTNode*>& chain,
                   const std::set<const PTNode*>& removed, PTPtr new_fix) {
  PTPtr cur = std::move(new_fix);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (removed.count(*it) > 0) continue;
    cur = ReRootUnary(**it, std::move(cur));
  }
  return cur;
}

}  // namespace

PTPtr ReRootUnary(const PTNode& proto, PTPtr child) {
  return ReRootImpl(proto, std::move(child));
}

bool PushSelThroughFix(PTPtr& root, OptContext& ctx) {
  for (PTPtr* site : CollectSubtrees(root)) {
    PTNode* s = site->get();
    if (s->kind != PTKind::kSel || s->pred == nullptr) continue;
    if (s->sel_access != SelAccess::kSeqScan) continue;
    std::vector<PTNode*> chain;
    PTNode* fix = ChainToFix(s, &chain);
    if (fix == nullptr) continue;

    std::vector<const PTNode*> support;
    std::set<std::string> fix_cols_used;
    if (!CollectSupport(*s->children[0], s->pred, chain, *fix, &support,
                        &fix_cols_used)) {
      continue;
    }
    // canPush: every referenced fix column must be copied verbatim by the
    // recursive arm.
    bool pushable = true;
    for (const std::string& c : fix_cols_used) {
      if (!RecArmCopiesCol(*fix, c)) {
        pushable = false;
        break;
      }
    }
    if (!pushable) continue;

    // The removed nodes' variables must not be used anywhere else.
    std::set<const PTNode*> removed_nodes(support.begin(), support.end());
    removed_nodes.insert(s);
    std::set<std::string> removed_vars;
    for (const PTNode* n : support) {
      for (const std::string& v : IntroducedVars(*n)) removed_vars.insert(v);
    }
    if (TreeUsesVars(*root, removed_nodes, removed_vars)) continue;

    // Build the pushed fixpoint.
    PTPtr base = WrapArm(*fix->children[0], support, s->pred, nullptr,
                         JoinAlgo::kNestedLoop, nullptr, "");
    PTPtr rec = WrapArm(*fix->children[1], support, s->pred, nullptr,
                        JoinAlgo::kNestedLoop, nullptr, "");
    PTPtr new_fix = MakeFix(fix->fix_name, std::move(base), std::move(rec));
    new_fix->est_iters = fix->est_iters;
    new_fix->naive_fix = fix->naive_fix;

    *site = RebuildUpper(chain, removed_nodes, std::move(new_fix));
    RecomputePTCols(root.get(), ctx.db->schema());
    root->InvalidateEstimates();
    ctx.cost->Annotate(root.get());
    return true;
  }
  return false;
}

bool PushJoinThroughFix(PTPtr& root, OptContext& ctx) {
  for (PTPtr* site : CollectSubtrees(root)) {
    PTNode* e = site->get();
    if (e->kind != PTKind::kEJ || e->pred == nullptr) continue;
    for (int side = 0; side < 2; ++side) {
      PTNode* top = e->children[side].get();
      std::vector<PTNode*> chain;
      PTNode* fix = top->kind == PTKind::kFix ? top : ChainToFix(top, &chain);
      if (fix == nullptr) continue;
      if (top->kind != PTKind::kFix) {
        // ChainToFix collected interior nodes; include the top itself.
        chain.insert(chain.begin(), top);
      }
      const PTNode* other = e->children[1 - side].get();

      // Every fix-side reference of the join predicate must be a fix column
      // copied verbatim; other-side references must resolve in `other`.
      bool ok = true;
      std::set<std::string> fix_cols_used;
      for (const auto& [var, path] : e->pred->VarPaths()) {
        int col = -1;
        std::vector<std::string> rest;
        if (other->ResolveVarPath(var, path, &col, &rest)) continue;
        if (!fix->ResolveVarPath(var, path, &col, &rest)) {
          ok = false;
          break;
        }
        fix_cols_used.insert(fix->cols[col].name);
      }
      if (!ok) continue;
      for (const std::string& c : fix_cols_used) {
        if (!RecArmCopiesCol(*fix, c)) {
          ok = false;
          break;
        }
      }
      if (!ok || fix_cols_used.empty()) continue;

      // The other side's columns must not be used above the join.
      std::set<std::string> other_vars;
      for (const PTCol& c : other->cols) other_vars.insert(c.name);
      std::set<const PTNode*> exclude;
      // Exclude the EJ itself and the entire other-side subtree.
      exclude.insert(e);
      PTPtr& other_owned = e->children[1 - side];
      VisitSubtrees(other_owned, [&](PTPtr& n) { exclude.insert(n.get()); });
      if (TreeUsesVars(*root, exclude, other_vars)) continue;

      // Index-join details survive only when the inner stays the inner.
      const JoinAlgo algo =
          (side == 0 && e->algo == JoinAlgo::kIndexJoin &&
           other->kind == PTKind::kEntity)
              ? JoinAlgo::kIndexJoin
              : JoinAlgo::kNestedLoop;
      PTPtr base = WrapArm(*fix->children[0], {}, e->pred, other, algo,
                           algo == JoinAlgo::kIndexJoin ? e->join_index : nullptr,
                           algo == JoinAlgo::kIndexJoin ? e->join_index_attr
                                                        : "");
      PTPtr rec = WrapArm(*fix->children[1], {}, e->pred, other, algo,
                          algo == JoinAlgo::kIndexJoin ? e->join_index : nullptr,
                          algo == JoinAlgo::kIndexJoin ? e->join_index_attr
                                                       : "");
      PTPtr new_fix = MakeFix(fix->fix_name, std::move(base), std::move(rec));
      new_fix->est_iters = fix->est_iters;
    new_fix->naive_fix = fix->naive_fix;

      // Replace the EJ by its fix-side chain rooted on the new fix.
      std::set<const PTNode*> removed;  // nothing from the chain is removed
      std::vector<PTNode*> interior(chain.begin() + (chain.empty() ? 0 : 1),
                                    chain.end());
      PTPtr rebuilt;
      if (chain.empty()) {
        rebuilt = std::move(new_fix);
      } else {
        rebuilt = RebuildUpper(interior, removed, std::move(new_fix));
        rebuilt = ReRootUnary(*chain.front(), std::move(rebuilt));
      }
      *site = std::move(rebuilt);
      RecomputePTCols(root.get(), ctx.db->schema());
      root->InvalidateEstimates();
      ctx.cost->Annotate(root.get());
      return true;
    }
  }
  return false;
}

bool PushProjThroughFix(PTPtr& root, OptContext& ctx) {
  for (PTPtr* site : CollectSubtrees(root)) {
    PTNode* t = site->get();
    if (t->kind != PTKind::kIJ) continue;
    std::vector<PTNode*> chain;
    PTNode* fix = ChainToFix(t, &chain);
    if (fix == nullptr) continue;

    // The IJ must read directly from a fix column. Unlike filters, pushed
    // projections need no verbatim-copy guard: each arm recomputes the new
    // column from its own producer expression for the source column, which
    // is consistent by construction.
    const PTNode& child = *t->children[0];
    int col = -1;
    std::vector<std::string> rest;
    if (!child.ResolveVarPath(t->src_var, {t->attr}, &col, &rest)) continue;
    const std::string src_col = child.cols[col].name;
    if (!fix->HasCol(src_col)) continue;
    // `rest` distinguishes a dotted source column (already holding the
    // reference; empty rest) from a plain object column that the IJ
    // traverses through `attr` (rest == {attr}).
    const std::vector<std::string> traverse = rest;

    // Every use of the IJ's output variable elsewhere must be "v.attr" with
    // a single residual attribute (so a dotted column can replace it).
    const std::string v = t->out_var;
    std::set<std::string> attrs_used;
    bool ok = true;
    std::function<void(const ExprPtr&)> scan_expr = [&](const ExprPtr& e) {
      if (e == nullptr || !ok) return;
      if (e->kind() == ExprKind::kVarPath && e->var() == v) {
        if (e->path().size() != 1) {
          ok = false;
          return;
        }
        attrs_used.insert(e->path()[0]);
      }
      for (const ExprPtr& c : e->children()) scan_expr(c);
    };
    std::function<void(const PTNode&)> scan_node = [&](const PTNode& n) {
      if (!ok) return;
      if (&n != t) {
        scan_expr(n.pred);
        for (const OutCol& c : n.proj) scan_expr(c.expr);
        if (n.kind == PTKind::kIJ && n.src_var == v) ok = false;
        if (n.kind == PTKind::kPIJ && n.src_var == v) ok = false;
      }
      for (const auto& c : n.children) scan_node(*c);
    };
    scan_node(*root);
    if (!ok || attrs_used.empty()) continue;

    // The attributes must be atomic, stored, single-valued.
    if (t->target == nullptr) continue;
    bool attrs_ok = true;
    for (const std::string& a : attrs_used) {
      const Attribute* attr = t->target->FindAttribute(a);
      if (attr == nullptr || attr->computed || !attr->type->IsAtomic()) {
        attrs_ok = false;
        break;
      }
    }
    if (!attrs_ok) continue;

    // Extend both arms: new projection entries "v.a" computed from the
    // arm's own producer expression for the source column.
    auto extend_arm = [&](const PTNode& arm) -> PTPtr {
      PTPtr cloned = arm.Clone();
      PTNode* proj = cloned.get();
      while (proj->kind == PTKind::kUnion) proj = proj->children[0].get();
      if (proj->kind != PTKind::kProj) return nullptr;
      const OutCol* entry = nullptr;
      for (const OutCol& c : proj->proj) {
        if (c.name == src_col) entry = &c;
      }
      if (entry == nullptr || entry->expr == nullptr ||
          entry->expr->kind() != ExprKind::kVarPath) {
        return nullptr;
      }
      // For Union arms, extend every member projection.
      std::function<bool(PTNode*)> extend = [&](PTNode* n) -> bool {
        if (n->kind == PTKind::kUnion) {
          for (auto& c : n->children) {
            if (!extend(c.get())) return false;
          }
          n->cols = n->children[0]->cols;
          return true;
        }
        if (n->kind != PTKind::kProj) return false;
        const OutCol* src_entry = nullptr;
        for (const OutCol& c : n->proj) {
          if (c.name == src_col) src_entry = &c;
        }
        if (src_entry == nullptr || src_entry->expr == nullptr ||
            src_entry->expr->kind() != ExprKind::kVarPath) {
          return false;
        }
        // Copy out of the vector before appending: push_back may
        // reallocate and invalidate src_entry.
        const ExprPtr src_expr = src_entry->expr;
        for (const std::string& a : attrs_used) {
          std::vector<std::string> path = src_expr->path();
          path.insert(path.end(), traverse.begin(), traverse.end());
          path.push_back(a);
          n->proj.push_back(
              OutCol{v + "." + a, Expr::Path(src_expr->var(), path)});
          n->cols.push_back(PTCol{v + "." + a, nullptr});
        }
        return true;
      };
      if (!extend(cloned.get())) return nullptr;
      return cloned;
    };

    PTPtr base = extend_arm(*fix->children[0]);
    PTPtr rec = extend_arm(*fix->children[1]);
    if (base == nullptr || rec == nullptr) continue;
    // The delta leaf of the recursive arm must grow matching columns.
    {
      std::function<void(PTNode*)> grow_delta = [&](PTNode* n) {
        if (n->kind == PTKind::kDelta && n->fix_name == fix->fix_name) {
          for (const std::string& a : attrs_used) {
            n->cols.push_back(PTCol{"$delta." + v + "." + a, nullptr});
          }
        }
        for (auto& c : n->children) grow_delta(c.get());
      };
      grow_delta(rec.get());
      // Column lists of interior nodes grow lazily; rebuild the recursive
      // arm's column propagation by re-annotation (cols of unary nodes are
      // structural). For simplicity we only require the delta and the final
      // projections to be consistent, which the executor checks.
    }
    PTPtr new_fix = MakeFix(fix->fix_name, std::move(base), std::move(rec));
    new_fix->est_iters = fix->est_iters;
    new_fix->naive_fix = fix->naive_fix;

    // Rebuild: drop the IJ node; keep the chain.
    std::set<const PTNode*> removed = {t};
    *site = RebuildUpper(chain, removed, std::move(new_fix));
    RecomputePTCols(root.get(), ctx.db->schema());
    root->InvalidateEstimates();
    ctx.cost->Annotate(root.get());
    return true;
  }
  return false;
}

size_t CollapseIJChains(PTPtr& root, OptContext& ctx) {
  size_t applications = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (PTPtr* site : CollectSubtrees(root)) {
      PTNode* n = site->get();
      // Find a maximal downward chain of IJ nodes n = IJk(...IJ1(c)...)
      // matching a path index (paper's collapse: PIJ_{p2.p1}).
      if (n->kind != PTKind::kIJ) continue;
      std::vector<PTNode*> chain = {n};
      while (chain.back()->children[0]->kind == PTKind::kIJ) {
        PTNode* next = chain.back()->children[0].get();
        // The chain must be a straight traversal: next's out var feeds the
        // node above it.
        if (chain.back()->src_var != next->out_var) break;
        chain.push_back(next);
      }
      if (chain.size() < 2) continue;
      std::reverse(chain.begin(), chain.end());  // bottom-up traversal order
      // Try the longest suffix of the chain that matches an index.
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
        int col = -1;
        std::vector<std::string> rest;
        if (!bottom_child.ResolveVarPath(chain[start]->src_var, {}, &col,
                                         &rest)) {
          continue;
        }
        const ClassDef* root_cls = bottom_child.cols[col].cls;
        if (root_cls == nullptr) continue;
        const PathIndex* index =
            ctx.db->FindPathIndex(root_cls->name(), path);
        if (index == nullptr) continue;
        PTPtr pij = MakePIJ(chain[start]->children[0]->Clone(),
                            chain[start]->src_var, path, out_vars, classes,
                            index);
        *site = std::move(pij);
        ++applications;
        changed = true;
        break;
      }
      if (changed) break;
    }
  }
  if (applications > 0) {
    RecomputePTCols(root.get(), ctx.db->schema());
    root->InvalidateEstimates();
    ctx.cost->Annotate(root.get());
  }
  return applications;
}

TransformResult TransformPT(PTPtr plan, OptContext& ctx,
                            const TransformOptions& options,
                            size_t search_threads, bool force_truncate) {
  TransformResult result;
  ctx.cost->Annotate(plan.get());

  // Alternative A: no pushing, randomized improvement only.
  PTPtr unpushed = plan->Clone();
  ctx.cost->Annotate(unpushed.get());

  // Alternative B: saturate the push actions.
  PTPtr pushed = plan->Clone();
  ctx.cost->Annotate(pushed.get());
  // Selections first (they restrict the recursion — the valuable pushes),
  // then joins, then projections (free, but they can consume the implicit
  // joins a selection push needs if run first).
  uint64_t span = 0;
  if (ctx.tracer != nullptr) {
    span = ctx.tracer->Begin("saturate-push", "transformPT");
  }
  auto record_push = [&](const char* kind, double before, double after) {
    if (ctx.decisions != nullptr) {
      PushDecision d;
      d.kind = kind;
      d.before_cost = before;
      d.after_cost = after;
      d.chose_push = true;  // provisional; the final compare may revert it
      d.detail = "applied during saturation";
      ctx.decisions->pushes.push_back(std::move(d));
    }
    if (ctx.tracer != nullptr) {
      ctx.tracer->Instant(kind, "transformPT",
                          {{"before_cost", StrFormat("%.6g", before)},
                           {"after_cost", StrFormat("%.6g", after)}});
    }
  };
  size_t guard = 0;
  bool any = true;
  while (any && guard++ < 32) {
    // Anytime checkpoint: each pass leaves `pushed` a complete, costed plan,
    // so tripping the budget here just stops saturating early.
    if (force_truncate || (ctx.query != nullptr && ctx.query->Expired())) {
      result.truncated = true;
      break;
    }
    any = false;
    const double before = pushed->est_cost;
    if (PushSelThroughFix(pushed, ctx)) {
      result.pushed_sel = any = true;
      ++result.push_applications;
      record_push("push-sel", before, pushed->est_cost);
      continue;
    }
    if (PushJoinThroughFix(pushed, ctx)) {
      result.pushed_join = any = true;
      ++result.push_applications;
      record_push("push-join", before, pushed->est_cost);
      continue;
    }
    if (PushProjThroughFix(pushed, ctx)) {
      result.pushed_proj = any = true;
      ++result.push_applications;
      record_push("push-proj", before, pushed->est_cost);
      continue;
    }
  }
  if (ctx.tracer != nullptr) {
    ctx.tracer->AddArg(span, "applications",
                       StrFormat("%zu", result.push_applications));
    ctx.tracer->End(span);
  }

  const bool have_push = result.push_applications > 0;

  // Randomized re-optimization of each alternative (paper: reoptimization
  // is needed because shifting a PT portion invalidates binding-specific
  // choices). Always through ParallelStrategy so one and N threads take the
  // same code path: with search_threads <= 1 the restarts run inline, and
  // because restarts use index-derived RNG streams the chosen plan — and
  // every counter — is identical for a given seed at any thread count.
  ParallelSearchReport report_a;
  ParallelSearchReport report_b;
  ParallelStrategy strategy(search_threads);
  auto improve = [&](PTPtr& alt, const char* label) {
    uint64_t s = 0;
    if (ctx.tracer != nullptr) s = ctx.tracer->Begin(label, "transformPT");
    ParallelSearchReport pr = strategy.Improve(alt, ctx, options);
    result.truncated = result.truncated || pr.truncated;
    if (ctx.tracer != nullptr) {
      ctx.tracer->AddArg(s, "tried", StrFormat("%zu", pr.tried));
      ctx.tracer->AddArg(s, "accepted", StrFormat("%zu", pr.accepted));
      ctx.tracer->AddArg(s, "final_cost", pr.final_cost);
      ctx.tracer->End(s);
    }
    return pr;
  };
  if (!force_truncate) {
    if (!options.always_push) report_a = improve(unpushed, "improve-unpushed");
    if (have_push && !options.never_push) {
      report_b = improve(pushed, "improve-pushed");
    }
  }
  result.moves_tried = report_a.tried + report_b.tried;
  result.moves_accepted = report_a.accepted + report_b.accepted;

  const double cost_a = ctx.cost->Annotate(unpushed.get());
  const double cost_b =
      have_push ? ctx.cost->Annotate(pushed.get()) : -1;
  result.unpushed_variant_cost = cost_a;
  result.pushed_variant_cost = cost_b;

  // The paper's delayed decision, as a structured event: both costed
  // alternatives and the winner.
  if (have_push && (ctx.decisions != nullptr || ctx.tracer != nullptr)) {
    const bool chose_push =
        options.always_push || (!options.never_push && cost_b < cost_a);
    if (ctx.decisions != nullptr) {
      PushDecision d;
      d.kind = "push-vs-unpushed";
      d.pushed_cost = cost_b;
      d.unpushed_cost = cost_a;
      d.chose_push = chose_push;
      d.detail = options.always_push   ? "forced (always_push)"
                 : options.never_push  ? "forced (never_push)"
                                       : "cost compare after re-optimization";
      ctx.decisions->pushes.push_back(std::move(d));
    }
    if (ctx.tracer != nullptr) {
      ctx.tracer->Instant(
          "push-vs-unpushed", "transformPT",
          {{"pushed_cost", StrFormat("%.6g", cost_b)},
           {"unpushed_cost", StrFormat("%.6g", cost_a)},
           {"chose_push", chose_push ? "true" : "false"}});
    }
  }

  if (options.never_push || !have_push) {
    result.plan = std::move(unpushed);
    result.cost = cost_a;
    result.pushed_sel = result.pushed_join = result.pushed_proj = false;
    return result;
  }
  if (options.always_push) {
    result.plan = std::move(pushed);
    result.cost = cost_b;
    return result;
  }
  if (cost_b < cost_a) {
    result.plan = std::move(pushed);
    result.cost = cost_b;
  } else {
    result.plan = std::move(unpushed);
    result.cost = cost_a;
    result.pushed_sel = result.pushed_join = result.pushed_proj = false;
  }
  return result;
}

}  // namespace rodin
