#include "exec/eval_core.h"

#include "common/check.h"

namespace rodin {

bool CompareValues(CompareOp op, const Value& a, const Value& b) {
  const int c = a.Compare(b);
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

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

/// The walk shared by by-name and bound navigation: from `start`, take
/// steps [step, steps), resolving each through `binding(step, oid)`.
/// Collections fan out (depth first, in element order), nulls vanish, an
/// atomic value with steps left matches nothing.
template <typename Binding>
void Walk(EvalContext* ctx, const Value& start, size_t steps, size_t step,
          const Binding& binding, std::vector<Value>* out) {
  if (start.is_null()) return;
  if (start.is_collection()) {
    for (const Value& e : start.AsCollection().elems) {
      Walk(ctx, e, steps, step, binding, out);
    }
    return;
  }
  if (step == steps) {
    out->push_back(start);
    return;
  }
  if (!start.is_ref()) return;  // atomic value with residual path: no match
  const Oid oid = start.AsRef();
  ReadStep(ctx, oid, binding(step, oid), [&](const Value& v) {
    Walk(ctx, v, steps, step + 1, binding, out);
  });
}

}  // namespace

void Navigate(EvalContext* ctx, const Value& start,
              const std::vector<std::string>& path, size_t step,
              std::vector<Value>* out) {
  const Database* db = ctx->db;
  Walk(ctx, start, path.size(), step,
       [&](size_t s, Oid oid) {
         return db->BindField(db->ExtentIndexOf(oid), path[s]);
       },
       out);
}

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
  const Database* db = ctx->db;
  Walk(ctx, start, path.steps.size(), step,
       [&](size_t s, Oid oid) -> const Database::FieldBinding& {
         return path.steps[s][db->ExtentIndexOf(oid)];
       },
       out);
}

std::vector<Value> EvalMulti(EvalContext* ctx, const RowSchema& schema,
                             const Row& row, const ExprPtr& expr) {
  std::vector<Value> out;
  if (expr == nullptr) return out;
  switch (expr->kind()) {
    case ExprKind::kLiteral:
      out.push_back(expr->literal());
      return out;
    case ExprKind::kVarPath: {
      int col = -1;
      std::vector<std::string> rest;
      RODIN_CHECK(schema.ResolveVarPath(expr->var(), expr->path(), &col, &rest),
                  "unresolvable variable path in executor");
      Navigate(ctx, row[col], rest, 0, &out);
      return out;
    }
    case ExprKind::kArith: {
      const std::vector<Value> l =
          EvalMulti(ctx, schema, row, expr->children()[0]);
      const std::vector<Value> r =
          EvalMulti(ctx, schema, row, expr->children()[1]);
      for (const Value& a : l) {
        for (const Value& b : r) {
          if (a.is_int() && b.is_int()) {
            out.push_back(Value::Int(expr->arith_op() == ArithOp::kAdd
                                         ? a.AsInt() + b.AsInt()
                                         : a.AsInt() - b.AsInt()));
          } else {
            const double x = a.AsNumber();
            const double y = b.AsNumber();
            out.push_back(Value::Real(
                expr->arith_op() == ArithOp::kAdd ? x + y : x - y));
          }
        }
      }
      return out;
    }
    case ExprKind::kCompare:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot:
      out.push_back(Value::Bool(EvalPred(ctx, schema, row, expr)));
      return out;
  }
  return out;
}

bool EvalPred(EvalContext* ctx, const RowSchema& schema, const Row& row,
              const ExprPtr& pred) {
  if (pred == nullptr) return true;
  switch (pred->kind()) {
    case ExprKind::kAnd:
      for (const ExprPtr& c : pred->children()) {
        if (!EvalPred(ctx, schema, row, c)) return false;
      }
      return true;
    case ExprKind::kOr:
      for (const ExprPtr& c : pred->children()) {
        if (EvalPred(ctx, schema, row, c)) return true;
      }
      return false;
    case ExprKind::kNot:
      return !EvalPred(ctx, schema, row, pred->children()[0]);
    case ExprKind::kCompare: {
      const std::vector<Value> l =
          EvalMulti(ctx, schema, row, pred->children()[0]);
      const std::vector<Value> r =
          EvalMulti(ctx, schema, row, pred->children()[1]);
      // Exists-semantics over multi-valued paths.
      for (const Value& a : l) {
        for (const Value& b : r) {
          if (CompareValues(pred->compare_op(), a, b)) return true;
        }
      }
      return false;
    }
    case ExprKind::kLiteral:
      return pred->literal().is_bool() && pred->literal().AsBool();
    case ExprKind::kArith:
      return false;  // a bare arithmetic expression is not a predicate
    case ExprKind::kVarPath: {
      const std::vector<Value> vals = EvalMulti(ctx, schema, row, pred);
      for (const Value& v : vals) {
        if (v.is_bool() && v.AsBool()) return true;
      }
      return false;
    }
  }
  return false;
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
