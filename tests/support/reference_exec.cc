#include "support/reference_exec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "catalog/schema.h"
#include "common/check.h"
#include "support/db_access.h"

namespace rodin {

namespace {

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

}  // namespace

// --- Interpreted expressions -------------------------------------------------

void Navigate(EvalContext* ctx, const Value& start,
              const std::vector<std::string>& path, size_t step,
              std::vector<Value>* out) {
  if (start.is_null()) return;
  if (start.is_collection()) {
    for (const Value& e : start.AsCollection().elems) {
      Navigate(ctx, e, path, step, out);
    }
    return;
  }
  if (step == path.size()) {
    out->push_back(start);
    return;
  }
  if (!start.is_ref()) return;  // atomic value with residual path: no match
  const Oid oid = start.AsRef();
  const Database& db = *ctx->db;
  const std::string& attr = path[step];
  const std::string& extent = db.ExtentNameOf(oid);
  const ClassDef* cls = db.schema().FindClass(extent);
  const Attribute* a = cls == nullptr ? nullptr : cls->FindAttribute(attr);
  if (a != nullptr && a->computed) {
    // Methods read their receiver: charge the record access.
    ++*ctx->method_calls;
    *ctx->method_cost_fp += MethodCostToFp(a->method_cost);
    db.ChargeRecordAccess(oid, ctx->charger);
    Navigate(ctx, InvokeMethod(db, oid, attr), path, step + 1, out);
    return;
  }
  const int field = db.FieldIndex(extent, attr);
  RODIN_CHECK(field >= 0, "navigation through an unknown attribute");
  const Extent* e = db.ExtentOf(oid);
  ctx->charger->Charge(e->PageOf(oid.slot, e->VfragOfField(field)));
  Navigate(ctx, e->Record(oid.slot)[field], path, step + 1, out);
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

// --- The whole-table evaluator -----------------------------------------------

ReferenceExecutor::ReferenceExecutor(Database* db, CostParams params)
    : db_(db), params_(params) {
  RODIN_CHECK(db != nullptr && db->finalized(),
              "reference executor needs a finalized database");
  start_misses_ = db_->buffer_pool().stats().misses;
}

double ReferenceExecutor::MeasuredCost() const {
  const double misses = static_cast<double>(
      db_->buffer_pool().stats().misses - start_misses_);
  return misses * params_.pr +
         static_cast<double>(counters_.predicate_evals) * params_.ev_tuple +
         counters_.method_cost * params_.method_weight;
}

void ReferenceExecutor::ResetMeasurement(bool clear_buffer) {
  counters_ = ExecCounters{};
  method_cost_fp_ = 0;
  if (clear_buffer) {
    db_->buffer_pool().Clear();
  } else {
    db_->buffer_pool().ResetStats();
  }
  start_misses_ = db_->buffer_pool().stats().misses;
}

Table ReferenceExecutor::Execute(const PTNode& plan) {
  Table out = Eval(plan);
  counters_.rows_produced += out.rows.size();
  counters_.method_cost = MethodCostFromFp(method_cost_fp_);
  return out;
}

EvalContext ReferenceExecutor::Context() {
  EvalContext ec;
  ec.db = db_;
  ec.charger = &db_->buffer_pool();
  ec.predicate_evals = &counters_.predicate_evals;
  ec.method_calls = &counters_.method_calls;
  ec.method_cost_fp = &method_cost_fp_;
  return ec;
}

Table ReferenceExecutor::Eval(const PTNode& node) {
  switch (node.kind) {
    case PTKind::kEntity:
      return EvalEntity(node);
    case PTKind::kDelta:
      return EvalDelta(node);
    case PTKind::kSel:
      return EvalSel(node);
    case PTKind::kProj:
      return EvalProj(node);
    case PTKind::kEJ:
      return EvalEJ(node);
    case PTKind::kIJ:
      return EvalIJ(node);
    case PTKind::kPIJ:
      return EvalPIJ(node);
    case PTKind::kUnion:
      return EvalUnion(node);
    case PTKind::kFix:
      return EvalFix(node);
  }
  return Table{};
}

Table ReferenceExecutor::EvalEntity(const PTNode& node) {
  Table out;
  out.schema.cols = node.cols;
  ScanEntity(db_, node.entity, [&](Oid oid, const std::vector<Value>&) {
    out.rows.push_back({Value::Ref(oid)});
  });
  return out;
}

Table ReferenceExecutor::EvalDelta(const PTNode& node) {
  auto it = deltas_.find(node.fix_name);
  RODIN_CHECK(it != deltas_.end(), "delta referenced outside its fixpoint");
  const Table* delta = it->second.first;
  ChargeTempScan(it->second.second, &db_->buffer_pool());
  Table out;
  out.schema.cols = node.cols;
  RODIN_CHECK(delta->schema.cols.size() == node.cols.size(),
              "delta column arity mismatch");
  out.rows = delta->rows;
  return out;
}

Table ReferenceExecutor::EvalSel(const PTNode& node) {
  EvalContext ec = Context();
  const PTNode& child = *node.children[0];
  Table out;
  out.schema.cols = node.cols;

  if (node.sel_access != SelAccess::kSeqScan) {
    RODIN_CHECK(child.kind == PTKind::kEntity, "index access needs entity");
    RODIN_CHECK(node.sel_index != nullptr, "index access without an index");
    Value literal;
    bool path_left = true;
    RODIN_CHECK(node.sel_index_pred != nullptr &&
                    SplitProbe(*node.sel_index_pred, &literal, &path_left),
                "malformed index probe predicate");
    std::vector<uint64_t> payloads;
    if (node.sel_access == SelAccess::kIndexEq) {
      payloads = node.sel_index->Lookup(literal, &db_->buffer_pool());
    } else {
      // One-sided range: orient by operator and which side the path is on.
      const CompareOp op = node.sel_index_pred->compare_op();
      const bool upper = path_left ? (op == CompareOp::kLt || op == CompareOp::kLe)
                                   : (op == CompareOp::kGt || op == CompareOp::kGe);
      const bool strict = op == CompareOp::kLt || op == CompareOp::kGt;
      if (upper) {
        payloads = node.sel_index->RangeLookup(Value::Null(), false, literal,
                                               strict, &db_->buffer_pool());
      } else {
        payloads = node.sel_index->RangeLookup(literal, strict, Value::Null(),
                                               false, &db_->buffer_pool());
      }
    }
    for (uint64_t p : payloads) {
      const Oid oid = db_->PayloadToOid(child.entity.extent, p);
      ChargeRecordAccess(db_, oid);
      Row row = {Value::Ref(oid)};
      ++counters_.predicate_evals;
      if (EvalPred(&ec, out.schema, row, node.pred)) {
        out.rows.push_back(std::move(row));
      }
    }
    return out;
  }

  if (child.kind == PTKind::kEntity) {
    // Fused scan + filter: one pass over the extent (Figure 5's Sel(C)).
    ScanEntity(db_, child.entity, [&](Oid oid, const std::vector<Value>&) {
      Row row = {Value::Ref(oid)};
      ++counters_.predicate_evals;
      if (EvalPred(&ec, out.schema, row, node.pred)) {
        out.rows.push_back(std::move(row));
      }
    });
    return out;
  }

  Table input = Eval(child);
  for (Row& row : input.rows) {
    ++counters_.predicate_evals;
    if (EvalPred(&ec, input.schema, row, node.pred)) {
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

Table ReferenceExecutor::EvalProj(const PTNode& node) {
  EvalContext ec = Context();
  Table input = Eval(*node.children[0]);
  Table out;
  out.schema.cols = node.cols;
  for (const Row& row : input.rows) {
    // Cartesian product of the (possibly multi-valued) projections.
    std::vector<std::vector<Value>> cols;
    bool any_empty = false;
    for (const OutCol& c : node.proj) {
      cols.push_back(EvalMulti(&ec, input.schema, row, c.expr));
      if (cols.back().empty()) any_empty = true;
    }
    if (any_empty) continue;
    std::vector<size_t> idx(cols.size(), 0);
    bool done = false;
    while (!done) {
      Row r;
      r.reserve(cols.size());
      for (size_t i = 0; i < cols.size(); ++i) r.push_back(cols[i][idx[i]]);
      out.rows.push_back(std::move(r));
      // Odometer increment, rightmost column fastest.
      size_t k = cols.size();
      while (true) {
        if (k == 0) {
          done = true;
          break;
        }
        --k;
        if (++idx[k] < cols[k].size()) break;
        idx[k] = 0;
      }
    }
  }
  if (node.dedup) out.Dedup();
  return out;
}

Table ReferenceExecutor::EvalEJ(const PTNode& node) {
  EvalContext ec = Context();
  const PTNode& left_node = *node.children[0];
  const PTNode& right_node = *node.children[1];
  Table left = Eval(left_node);
  Table out;
  out.schema.cols = node.cols;

  if (node.algo == JoinAlgo::kIndexJoin) {
    RODIN_CHECK(right_node.kind == PTKind::kEntity,
                "index join needs an entity inner");
    RODIN_CHECK(node.join_index != nullptr, "index join without an index");
    ExprPtr residual_pred;
    const ExprPtr probe =
        ExtractIndexProbe(node, right_node.binding, &residual_pred);
    RODIN_CHECK(probe != nullptr, "index join probe not found in predicate");

    for (const Row& lrow : left.rows) {
      const std::vector<Value> keys = EvalMulti(&ec, left.schema, lrow, probe);
      for (const Value& key : keys) {
        const std::vector<uint64_t> payloads =
            node.join_index->Lookup(key, &db_->buffer_pool());
        for (uint64_t p : payloads) {
          const Oid oid = db_->PayloadToOid(right_node.entity.extent, p);
          ChargeRecordAccess(db_, oid);
          Row row = lrow;
          row.push_back(Value::Ref(oid));
          ++counters_.predicate_evals;
          if (EvalPred(&ec, out.schema, row, residual_pred)) {
            out.rows.push_back(std::move(row));
          }
        }
      }
    }
    return out;
  }

  // Nested loop. The inner is evaluated once; re-scans of an entity inner
  // charge its pages per outer row (buffer hits when it fits).
  Table right = Eval(right_node);
  const bool inner_entity =
      right_node.kind == PTKind::kEntity || right_node.kind == PTKind::kDelta;
  TempFile temp;
  std::vector<PageId> inner_pages;
  if (inner_entity && right_node.kind == PTKind::kEntity) {
    const Extent* e = db_->FindExtent(right_node.entity.extent);
    inner_pages = e->ScanPages(right_node.entity.vfrag, right_node.entity.hfrag);
  } else if (!inner_entity) {
    temp = AllocateTempFile(db_, right.rows.size(), right.schema.cols.size());
  }

  bool first_outer = true;
  for (const Row& lrow : left.rows) {
    if (!first_outer) {
      // Re-scan charge for the inner.
      if (!inner_pages.empty()) {
        for (PageId p : inner_pages) db_->buffer_pool().Fetch(p);
      } else if (temp.pages > 0) {
        ChargeTempScan(temp, &db_->buffer_pool());
      }
      // Delta inners are charged by EvalDelta once; re-scans of the delta
      // temp are charged here through deltas_.
      if (right_node.kind == PTKind::kDelta) {
        auto it = deltas_.find(right_node.fix_name);
        if (it != deltas_.end()) {
          ChargeTempScan(it->second.second, &db_->buffer_pool());
        }
      }
    }
    first_outer = false;
    for (const Row& rrow : right.rows) {
      Row row = lrow;
      row.insert(row.end(), rrow.begin(), rrow.end());
      ++counters_.predicate_evals;
      if (EvalPred(&ec, out.schema, row, node.pred)) {
        out.rows.push_back(std::move(row));
      }
    }
  }
  return out;
}

Table ReferenceExecutor::EvalIJ(const PTNode& node) {
  EvalContext ec = Context();
  Table input = Eval(*node.children[0]);
  Table out;
  out.schema.cols = node.cols;
  int col = -1;
  std::vector<std::string> rest;
  RODIN_CHECK(input.schema.ResolveVarPath(node.src_var, {node.attr}, &col, &rest),
              "IJ source unresolvable at runtime");
  for (const Row& row : input.rows) {
    std::vector<Value> targets;
    if (rest.empty()) {
      // Dotted column: the reference is already materialized in the row.
      ExpandValue(row[col], &targets);
    } else {
      Navigate(&ec, row[col], {node.attr}, 0, &targets);
    }
    for (const Value& t : targets) {
      if (!t.is_ref()) continue;
      ChargeRecordAccess(db_, t.AsRef());
      Row r = row;
      r.push_back(t);
      out.rows.push_back(std::move(r));
    }
  }
  return out;
}

Table ReferenceExecutor::EvalPIJ(const PTNode& node) {
  Table input = Eval(*node.children[0]);
  Table out;
  out.schema.cols = node.cols;
  const int col = input.schema.IndexOf(node.src_var);
  RODIN_CHECK(col >= 0, "PIJ source column missing at runtime");
  for (const Row& row : input.rows) {
    if (!row[col].is_ref()) continue;
    const auto entries =
        node.path_index->Lookup(row[col].AsRef(), &db_->buffer_pool());
    for (const std::vector<Oid>* entry : entries) {
      Row r = row;
      for (size_t i = 0; i < node.path_out_vars.size(); ++i) {
        if (!node.path_out_vars[i].empty()) {
          r.push_back(Value::Ref((*entry)[i + 1]));
        }
      }
      out.rows.push_back(std::move(r));
    }
  }
  return out;
}

Table ReferenceExecutor::EvalUnion(const PTNode& node) {
  Table out;
  out.schema.cols = node.cols;
  for (const auto& c : node.children) {
    Table t = Eval(*c);
    for (Row& r : t.rows) out.rows.push_back(std::move(r));
  }
  out.Dedup();
  return out;
}

Table ReferenceExecutor::EvalFix(const PTNode& node) {
  const bool cacheable = !HasForeignDelta(node, node.fix_name);
  std::string key;
  if (cacheable) {
    key = node.Fingerprint();
    auto it = fix_memo_.find(key);
    if (it != fix_memo_.end()) {
      ChargeTempScan(it->second.temp, &db_->buffer_pool());
      return it->second.result;
    }
  }
  Table base = Eval(*node.children[0]);
  base.Dedup();

  Table result;
  result.schema.cols = node.cols;
  result.rows = base.rows;

  std::set<Row, bool (*)(const Row&, const Row&)> seen(&Table::RowLess);
  for (const Row& r : base.rows) seen.insert(r);

  // Semi-naive: feed only the last iteration's new tuples into the
  // recursive arm. Naive mode feeds the whole accumulated result each
  // round (re-deriving everything) — the evaluation strategy Figure 5's
  // cost formula improves on.
  Table delta = base;
  bool progress = true;
  while (progress && !result.rows.empty()) {
    ++counters_.fix_iterations;
    const Table& input = node.naive_fix ? result : delta;
    if (!node.naive_fix && delta.rows.empty()) break;
    const TempFile temp =
        AllocateTempFile(db_, input.rows.size(), input.schema.cols.size());
    deltas_[node.fix_name] = {&input, temp};
    Table produced = Eval(*node.children[1]);
    deltas_.erase(node.fix_name);

    Table next;
    next.schema = result.schema;
    for (Row& r : produced.rows) {
      if (seen.insert(r).second) {
        result.rows.push_back(r);
        next.rows.push_back(std::move(r));
      }
    }
    progress = !next.rows.empty();
    delta = std::move(next);
  }
  if (cacheable) {
    FixMemo& memo = fix_memo_[key];
    memo.temp =
        AllocateTempFile(db_, result.rows.size(), result.schema.cols.size());
    memo.result = result;
  }
  return result;
}

// --- Comparison helpers ------------------------------------------------------

namespace {

std::vector<std::string> RowKeys(const Table& t) {
  std::vector<std::string> keys;
  keys.reserve(t.rows.size());
  for (const Row& row : t.rows) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    keys.push_back(std::move(key));
  }
  return keys;
}

void FillPoolStats(const Database& db, ExecFingerprint* fp) {
  const BufferPool::Stats s = db.buffer_pool().stats();
  fp->fetches = s.fetches;
  fp->hits = s.hits;
  fp->misses = s.misses;
}

}  // namespace

ExecFingerprint ReferenceFingerprint(Database* db, const PTNode& plan) {
  ReferenceExecutor ref(db);
  ref.ResetMeasurement(/*clear_buffer=*/true);  // cold: deterministic pool
  ExecFingerprint fp;
  fp.rows = RowKeys(ref.Execute(plan));
  fp.counters = ref.counters();
  FillPoolStats(*db, &fp);
  fp.measured_cost = ref.MeasuredCost();
  return fp;
}

ExecFingerprint EngineFingerprint(Database* db, const PTNode& plan,
                                  const ExecOptions& options) {
  Executor exec(db);
  exec.ResetMeasurement(/*clear_buffer=*/true);  // cold: deterministic pool
  ExecFingerprint fp;
  fp.rows = RowKeys(exec.Execute(plan, options));
  fp.counters = exec.counters();
  FillPoolStats(*db, &fp);
  fp.measured_cost = exec.MeasuredCost();
  fp.spills = exec.spill_stats().spills;
  return fp;
}

void ExpectSameCounters(const ExecCounters& got, const ExecCounters& want) {
  EXPECT_EQ(got.predicate_evals, want.predicate_evals);
  EXPECT_EQ(got.method_calls, want.method_calls);
  EXPECT_EQ(got.method_cost, want.method_cost);
  EXPECT_EQ(got.rows_produced, want.rows_produced);
  EXPECT_EQ(got.fix_iterations, want.fix_iterations);
}

void ExpectSameFingerprint(const ExecFingerprint& got,
                           const ExecFingerprint& want) {
  ASSERT_EQ(got.rows, want.rows);
  ExpectSameCounters(got.counters, want.counters);
  EXPECT_EQ(got.fetches, want.fetches);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.measured_cost, want.measured_cost);  // bitwise, no ULP
}

std::vector<uint64_t> ExpectEngineMatchesReference(
    Database* db, const PTNode& plan, const std::string& label,
    const std::vector<EngineArm>& arms) {
  const ExecFingerprint want = ReferenceFingerprint(db, plan);
  std::vector<uint64_t> max_spills(arms.size(), 0);
  for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (size_t a = 0; a < arms.size(); ++a) {
        SCOPED_TRACE(label + " batch_rows=" + std::to_string(batch) +
                     " exec_threads=" + std::to_string(threads) + " " +
                     arms[a].name);
        ExecOptions options;
        options.batch_rows = batch;
        options.exec_threads = threads;
        options.query = arms[a].query;
        const ExecFingerprint got = EngineFingerprint(db, plan, options);
        ExpectSameFingerprint(got, want);
        max_spills[a] = std::max(max_spills[a], got.spills);
      }
    }
  }
  return max_spills;
}

}  // namespace rodin
