#include "exec/eval_core.h"

#include "common/check.h"

namespace rodin {

bool SplitProbe(const Expr& cmp, Value* literal, bool* path_on_left) {
  if (cmp.kind() != ExprKind::kCompare) return false;
  const ExprPtr& l = cmp.children()[0];
  const ExprPtr& r = cmp.children()[1];
  if (l->kind() == ExprKind::kVarPath && r->kind() == ExprKind::kLiteral) {
    *literal = r->literal();
    *path_on_left = true;
    return true;
  }
  if (r->kind() == ExprKind::kVarPath && l->kind() == ExprKind::kLiteral) {
    *literal = l->literal();
    *path_on_left = false;
    return true;
  }
  return false;
}

namespace {

/// Reads the attribute `b` binds on object `oid` and hands the value to
/// `next`. The one definition of what a navigation step costs: a computed
/// attribute counts a method call plus its declared cost and charges the
/// receiver's record page; a stored one charges the page of the vertical
/// fragment holding it and is read in place, without a copy.
template <typename Next>
void ReadStep(EvalContext* ctx, Oid oid, const Database::FieldBinding& b,
              Next&& next) {
  switch (b.kind) {
    case Database::FieldBinding::Kind::kComputed: {
      ++*ctx->method_calls;
      *ctx->method_cost_fp += MethodCostToFp(b.method_cost);
      ctx->charger->Charge(b.extent->PageOf(oid.slot, 0));
      RODIN_CHECK(b.method != nullptr, "no method registered for attribute");
      next((*b.method)(*ctx->db, oid));
      return;
    }
    case Database::FieldBinding::Kind::kStored:
      ctx->charger->Charge(b.extent->PageOf(oid.slot, b.vfrag));
      next(b.extent->Record(oid.slot)[b.field]);
      return;
    case Database::FieldBinding::Kind::kAbsent:
      break;
  }
  RODIN_CHECK(false, "navigation through an unknown attribute");
}

}  // namespace

BoundPath BindPath(const Database& db, std::vector<std::string> names) {
  BoundPath p;
  p.steps.resize(names.size());
  for (size_t s = 0; s < names.size(); ++s) {
    p.steps[s].reserve(db.num_extents());
    for (size_t e = 0; e < db.num_extents(); ++e) {
      p.steps[s].push_back(db.BindField(e, names[s]));
    }
  }
  p.names = std::move(names);
  return p;
}

void NavigateBound(EvalContext* ctx, const Value& start, const BoundPath& path,
                   size_t step, std::vector<Value>* out) {
  if (start.is_null()) return;
  if (start.is_collection()) {
    for (const Value& e : start.AsCollection().elems) {
      NavigateBound(ctx, e, path, step, out);
    }
    return;
  }
  if (step == path.steps.size()) {
    out->push_back(start);
    return;
  }
  if (!start.is_ref()) return;  // atomic value with residual path: no match
  const Oid oid = start.AsRef();
  ReadStep(ctx, oid, path.steps[step][ctx->db->ExtentIndexOf(oid)],
           [&](const Value& v) { NavigateBound(ctx, v, path, step + 1, out); });
}

ExprPtr ExtractIndexProbe(const PTNode& node, const std::string& inner_binding,
                          ExprPtr* residual_pred) {
  ExprPtr probe;
  std::vector<ExprPtr> residual;
  for (const ExprPtr& c :
       (node.pred == nullptr ? std::vector<ExprPtr>{} : node.pred->Conjuncts())) {
    if (probe == nullptr && c->kind() == ExprKind::kCompare &&
        c->compare_op() == CompareOp::kEq) {
      const ExprPtr& l = c->children()[0];
      const ExprPtr& r = c->children()[1];
      auto is_inner_attr = [&](const ExprPtr& e) {
        return e->kind() == ExprKind::kVarPath && e->var() == inner_binding &&
               e->path().size() == 1 && e->path()[0] == node.join_index_attr;
      };
      if (is_inner_attr(l) && r->FreeVars().count(inner_binding) == 0) {
        probe = r;
        continue;
      }
      if (is_inner_attr(r) && l->FreeVars().count(inner_binding) == 0) {
        probe = l;
        continue;
      }
    }
    residual.push_back(c);
  }
  *residual_pred = ConjunctionOf(std::move(residual));
  return probe;
}

bool HasForeignDelta(const PTNode& tree, const std::string& own) {
  if (tree.kind == PTKind::kDelta && tree.fix_name != own) return true;
  for (const auto& c : tree.children) {
    if (HasForeignDelta(*c, own)) return true;
  }
  return false;
}

}  // namespace rodin
