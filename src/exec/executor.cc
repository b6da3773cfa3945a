#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/faults.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "exec/batch_engine.h"
#include "exec/exec_abort.h"
#include "exec/eval_core.h"
#include "exec/row_batch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/spill_file.h"

namespace rodin {

TempFile AllocateTempFile(Database* db, size_t rows, size_t ncols) {
  const uint64_t bytes =
      static_cast<uint64_t>(rows) * 16 * std::max<size_t>(1, ncols);
  TempFile temp;
  temp.pages =
      std::max<uint64_t>(1, (bytes + kPageSizeBytes - 1) / kPageSizeBytes);
  temp.first = db->AllocatePages(temp.pages);
  return temp;
}

void ChargeTempScan(const TempFile& temp, PageCharger* charger) {
  for (uint64_t p = 0; p < temp.pages; ++p) charger->Charge(temp.first + p);
}

Executor::Executor(Database* db, CostParams params)
    : db_(db), params_(params) {
  RODIN_CHECK(db != nullptr, "null database");
  RODIN_CHECK(db->finalized(), "executor needs a finalized database");
  start_misses_ = db_->buffer_pool().stats().misses;
}

Executor::~Executor() = default;

double Executor::MeasuredCost() const {
  // Saturating delta: a concurrent session's ResetMeasurement can move the
  // shared pool's miss counter below this executor's watermark; clamp to 0
  // instead of wrapping into an absurd cost.
  const uint64_t now = db_->buffer_pool().stats().misses;
  const double misses =
      now >= start_misses_ ? static_cast<double>(now - start_misses_) : 0.0;
  return misses * params_.pr +
         static_cast<double>(counters_.predicate_evals) * params_.ev_tuple +
         counters_.method_cost * params_.method_weight;
}

void Executor::ResetMeasurement(bool clear_buffer) {
  counters_ = ExecCounters{};
  method_cost_fp_ = 0;
  spill_stats_ = SpillStats{};
  op_stats_.clear();
  if (clear_buffer) {
    db_->buffer_pool().Clear();
  } else {
    db_->buffer_pool().ResetStats();
  }
  start_misses_ = db_->buffer_pool().stats().misses;
}

void Executor::ResetMeasurementShared() {
  counters_ = ExecCounters{};
  method_cost_fp_ = 0;
  spill_stats_ = SpillStats{};
  op_stats_.clear();
  start_misses_ = db_->buffer_pool().stats().misses;
}

ThreadPool* Executor::PoolFor(size_t threads) {
  if (threads <= 1) return nullptr;
  for (const auto& pool : pools_) {
    if (pool->thread_count() == threads) return pool.get();
  }
  pools_.push_back(std::make_unique<ThreadPool>(threads));
  return pools_.back().get();
}

void Executor::CheckLegacyBudget(int fix_iter) {
  if (inject_faults_) {
    FaultInjector& fi = FaultInjector::Global();
    if (fix_iter > 0 && fi.ForceDeadlineAtFixIter(fix_iter)) {
      throw internal::ExecAbort(Status::Error(
          Status::Code::kDeadlineExceeded,
          StrFormat("deadline exceeded (forced at fix iteration %d)",
                    fix_iter)));
    }
    if (fi.InjectPageFetchFault()) {
      throw internal::ExecAbort(Status::Error(
          Status::Code::kFault, "injected page-fetch failure"));
    }
  }
  if (query_ != nullptr) {
    if (Status s = query_->Check(); !s.ok()) {
      throw internal::ExecAbort(std::move(s));
    }
  }
}

namespace {

const char* SpillOpName(SpillOpTag tag) {
  switch (tag) {
    case SpillOpTag::kJoinBuild:
      return "join-build";
    case SpillOpTag::kFixDelta:
      return "fix-delta";
    case SpillOpTag::kDedup:
      return "dedup";
    case SpillOpTag::kFixCache:
      return "fix-cache";
    case SpillOpTag::kUnion:
      return "union";
  }
  return "unknown";
}

}  // namespace

Status MakeResourceExhausted(SpillOpTag tag, uint64_t requested,
                             uint64_t budget, uint64_t live, bool row_refusal) {
  const uint64_t remaining = budget > live ? budget - live : 0;
  Status s = Status::Error(
      Status::Code::kResourceExhausted,
      row_refusal
          ? StrFormat("%s: a single row needs %llu page(s), more than the "
                      "whole %llu-page budget — no partitioning can split "
                      "one row",
                      SpillOpName(tag),
                      static_cast<unsigned long long>(requested),
                      static_cast<unsigned long long>(budget))
          : StrFormat("%s: temp file of %llu pages exceeds the remaining "
                      "budget (%llu of %llu pages live) and spilling is off",
                      SpillOpName(tag),
                      static_cast<unsigned long long>(requested),
                      static_cast<unsigned long long>(live),
                      static_cast<unsigned long long>(budget)));
  s.detail = PackResourceDetail(tag, requested, remaining);
  return s;
}

/// Pages one row of `ncols` columns occupies in the 16-bytes-per-value temp
/// model; a row wider than the whole budget cannot be spilled around.
uint64_t TempRowPages(size_t ncols) {
  const uint64_t bytes = 16 * std::max<size_t>(1, ncols);
  return std::max<uint64_t>(1, (bytes + kPageSizeBytes - 1) / kPageSizeBytes);
}

TempFile Executor::AllocTempChecked(size_t rows, size_t ncols, SpillOpTag tag,
                                    bool* spilled) {
  if (spilled != nullptr) *spilled = false;
  if (inject_faults_ && FaultInjector::Global().InjectAllocFault()) {
    throw internal::ExecAbort(Status::Error(
        Status::Code::kFault, "injected allocation failure"));
  }
  TempFile temp = AllocateTempFile(db_, rows, ncols);
  const size_t budget = ledger_budget_pages_;
  if (budget == 0) return temp;
  // A single oversized row is a typed refusal even with spilling on.
  const uint64_t row_pages = TempRowPages(ncols);
  if (row_pages > budget) {
    throw internal::ExecAbort(MakeResourceExhausted(
        tag, row_pages, budget, live_temp_pages_, /*row_refusal=*/true));
  }
  if (live_temp_pages_ + temp.pages > budget) {
    if (!spill_enabled_) {
      throw internal::ExecAbort(MakeResourceExhausted(
          tag, temp.pages, budget, live_temp_pages_, /*row_refusal=*/false));
    }
    // Logical spill: the legacy engine is the oracle, so its rows stay in
    // memory — the ledger just stops charging, exactly as if the payload
    // had moved to disk. Answers and accounting are untouched.
    ++spill_stats_.spills;
    static obs::Counter* spills =
        obs::MetricsRegistry::Global().GetCounter("rodin.spill.spills");
    spills->Add(1);
    if (spilled != nullptr) *spilled = true;
    return temp;
  }
  live_temp_pages_ += temp.pages;
  return temp;
}

void Executor::ReleaseTempPages(uint64_t pages) {
  live_temp_pages_ -= std::min<uint64_t>(live_temp_pages_, pages);
}

bool SpillEnvDefault() {
  static const bool on = [] {
    const char* v = std::getenv("RODIN_SPILL");
    if (v == nullptr || v[0] == '\0') return true;
    const std::string s(v);
    return s != "0" && s != "off";
  }();
  return on;
}

size_t SpillBudgetEnvDefault() {
  static const size_t pages = [] {
    const char* v = std::getenv("RODIN_SPILL_BUDGET");
    if (v == nullptr || v[0] == '\0') return size_t{0};
    return static_cast<size_t>(std::strtoull(v, nullptr, 10));
  }();
  return pages;
}

bool EffectiveSpillEnabled(const QueryContext* query) {
  if (query != nullptr && query->spill.has_value()) return *query->spill;
  return SpillEnvDefault();
}

size_t EffectiveSpillBudgetPages(const QueryContext* query) {
  if (query != nullptr) {
    if (query->spill_budget_pages > 0) return query->spill_budget_pages;
    if (query->memory_budget_pages > 0) return query->memory_budget_pages;
  }
  return SpillBudgetEnvDefault();
}

void Executor::EmitExecMetrics(size_t rows) {
  static obs::Counter* execs =
      obs::MetricsRegistry::Global().GetCounter("rodin.exec.executions");
  static obs::Counter* produced =
      obs::MetricsRegistry::Global().GetCounter("rodin.exec.rows_produced");
  execs->Add(1);
  produced->Add(rows);
}

// --- Legacy whole-table evaluator (ExecOptions::use_legacy) ----------------
//
// The pre-batching engine: every node materializes its full result in one
// recursive call. Kept as the differential-testing oracle and the bench
// baseline; the batched engine reproduces its accounting bit for bit.
// Expression evaluation and counting go through eval_core with an
// EvalContext wired directly at the executor's counters and buffer pool.

Table Executor::EvalEntity(const PTNode& node) {
  Table out;
  out.schema.cols = node.cols;
  db_->ScanEntity(node.entity, [&](Oid oid, const std::vector<Value>&) {
    out.rows.push_back({Value::Ref(oid)});
  });
  return out;
}

Table Executor::EvalDelta(const PTNode& node) {
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

Table Executor::EvalSel(const PTNode& node) {
  EvalContext ec{db_, &db_->buffer_pool(), &counters_.predicate_evals,
                 &counters_.method_calls, &method_cost_fp_};
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
      db_->ChargeRecordAccess(oid);
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
    db_->ScanEntity(child.entity, [&](Oid oid, const std::vector<Value>&) {
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

Table Executor::EvalProj(const PTNode& node) {
  EvalContext ec{db_, &db_->buffer_pool(), &counters_.predicate_evals,
                 &counters_.method_calls, &method_cost_fp_};
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

Table Executor::EvalEJ(const PTNode& node) {
  EvalContext ec{db_, &db_->buffer_pool(), &counters_.predicate_evals,
                 &counters_.method_calls, &method_cost_fp_};
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
          db_->ChargeRecordAccess(oid);
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
    temp = AllocTempChecked(right.rows.size(), right.schema.cols.size(),
                            SpillOpTag::kJoinBuild);
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

Table Executor::EvalIJ(const PTNode& node) {
  EvalContext ec{db_, &db_->buffer_pool(), &counters_.predicate_evals,
                 &counters_.method_calls, &method_cost_fp_};
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
      db_->ChargeRecordAccess(t.AsRef());
      Row r = row;
      r.push_back(t);
      out.rows.push_back(std::move(r));
    }
  }
  return out;
}

Table Executor::EvalPIJ(const PTNode& node) {
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

Table Executor::EvalUnion(const PTNode& node) {
  Table out;
  out.schema.cols = node.cols;
  for (const auto& c : node.children) {
    Table t = Eval(*c);
    for (Row& r : t.rows) out.rows.push_back(std::move(r));
  }
  out.Dedup();
  return out;
}

Table Executor::EvalFix(const PTNode& node) {
  const bool cacheable = !HasForeignDelta(node, node.fix_name);
  std::string key;
  if (cacheable) {
    key = node.Fingerprint();
    auto it = fix_cache_.find(key);
    if (it != fix_cache_.end()) {
      ChargeTempScan(it->second.temp, &db_->buffer_pool());
      if (it->second.spill != nullptr) {
        // The batched engine spilled this entry's payload; rematerialize it
        // from disk (one read-back pass, tracked outside MeasuredCost).
        Table out;
        out.schema.cols = node.cols;
        it->second.spill->ReadAll(&out.rows);
        ++spill_stats_.passes;
        return out;
      }
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
  int iter = 0;
  while (progress && !result.rows.empty()) {
    // Budget poll at the iteration boundary: each iteration leaves `result`
    // consistent, so aborting here loses only future derivations.
    CheckLegacyBudget(++iter);
    ++counters_.fix_iterations;
    const Table& input = node.naive_fix ? result : delta;
    if (!node.naive_fix && delta.rows.empty()) break;
    bool delta_spilled = false;
    const TempFile temp =
        AllocTempChecked(input.rows.size(), input.schema.cols.size(),
                         SpillOpTag::kFixDelta, &delta_spilled);
    deltas_[node.fix_name] = {&input, temp};
    Table produced = Eval(*node.children[1]);
    deltas_.erase(node.fix_name);
    // Per-iteration delta temps are genuinely freed here — the one temp
    // class the ledger releases mid-query.
    if (!delta_spilled) ReleaseTempPages(temp.pages);

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
    // The caching decision is budget-independent (a later occurrence must
    // charge the same temp scan under any budget); an over-budget payload
    // logically spills — this engine keeps the rows in memory either way.
    FixCacheEntry entry;
    entry.temp = AllocTempChecked(result.rows.size(),
                                  result.schema.cols.size(),
                                  SpillOpTag::kFixCache);
    entry.result = result;
    fix_cache_[key] = std::move(entry);
  }
  return result;
}

Table Executor::Eval(const PTNode& node) {
  if (!collect_op_stats_) return EvalNode(node);
  const uint64_t fetches_before = db_->buffer_pool().stats().fetches;
  const auto t0 = std::chrono::steady_clock::now();
  Table out = EvalNode(node);
  OpStats& s = op_stats_[&node];
  ++s.invocations;
  s.rows += out.rows.size();
  s.pages += db_->buffer_pool().stats().fetches - fetches_before;
  s.micros +=
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

Table Executor::EvalNode(const PTNode& node) {
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

// --- Entry points ----------------------------------------------------------

Table Executor::Execute(const PTNode& plan) {
  return Execute(plan, ExecOptions{});
}

Table Executor::Execute(const PTNode& plan, const ExecOptions& options) {
  Table out;
  ExecuteInto(plan, options, &out);
  return out;
}

Status Executor::ExecuteInto(const PTNode& plan, const ExecOptions& options,
                             Table* out) {
  uint64_t span = 0;
  if (tracer_ != nullptr) span = tracer_->Begin("execute", "exec");
  out->rows.clear();
  Status status;
  query_ = options.query;
  inject_faults_ =
      options.inject_faults && FaultInjector::Global().enabled();
  const size_t budget =
      query_ != nullptr ? query_->memory_budget_pages : 0;
  // Per-run temp-page ledger (cumulative, unlike the pre-spill per-file
  // check): resolved once so both engines see one consistent budget.
  live_temp_pages_ = 0;
  ledger_budget_pages_ = EffectiveSpillBudgetPages(query_);
  spill_enabled_ = EffectiveSpillEnabled(query_);
  const SpillStats spill_before = spill_stats_;
  if (options.use_legacy) {
    // The legacy evaluator charges the pool as it runs, so the budget is
    // armed for the whole evaluation — and the whole evaluation is an
    // active-fetch section for the resident-snapshot debug guard.
    BufferPool::ActiveFetchScope fetch_scope(&db_->buffer_pool());
    if (budget > 0) db_->buffer_pool().SetQueryBudget(budget);
    try {
      CheckLegacyBudget(0);
      *out = Eval(plan);
      counters_.rows_produced += out->rows.size();
      counters_.method_cost = MethodCostFromFp(method_cost_fp_);
    } catch (internal::ExecAbort& abort) {
      status = std::move(abort.status);
      out->rows.clear();
      deltas_.clear();  // an abort mid-fixpoint leaves a live delta entry
    }
    if (budget > 0) db_->buffer_pool().ClearQueryBudget();
  } else {
    BatchEngine::Config cfg;
    cfg.db = db_;
    cfg.batch_rows = options.batch_rows;
    cfg.exec_threads = options.exec_threads;
    cfg.hash_equijoin = options.hash_equijoin;
    cfg.pool = PoolFor(options.exec_threads);
    cfg.fix_cache = &fix_cache_;
    cfg.collect_op_stats = collect_op_stats_;
    cfg.op_stats = &op_stats_;
    cfg.counters = &counters_;
    cfg.method_cost_fp = &method_cost_fp_;
    cfg.query = query_;
    cfg.inject_faults = inject_faults_;
    cfg.spill_enabled = spill_enabled_;
    cfg.spill_budget_pages = ledger_budget_pages_;
    cfg.spill_stats = &spill_stats_;
    BatchEngine engine(cfg, plan);
    out->schema = engine.schema();
    RowBatch batch;
    while (engine.Next(&batch)) {
      for (Row& r : batch.rows) out->rows.push_back(std::move(r));
    }
    engine.Finalize();
    status = engine.status();
    if (!status.ok()) out->rows.clear();
    if (tracer_ != nullptr) {
      tracer_->AddArg(span, "vm_chunks",
                      StrFormat("%llu", static_cast<unsigned long long>(
                                            engine.vm_chunks())));
      tracer_->AddArg(span, "vm_instrs",
                      StrFormat("%llu", static_cast<unsigned long long>(
                                            engine.vm_instrs())));
    }
  }
  query_ = nullptr;
  inject_faults_ = false;
  if (tracer_ != nullptr) {
    tracer_->AddArg(span, "rows", StrFormat("%zu", out->rows.size()));
    tracer_->AddArg(span, "measured_cost", MeasuredCost());
    if (!status.ok()) tracer_->AddArg(span, "status", status.code_name());
    if (spill_stats_.spills > spill_before.spills) {
      tracer_->AddArg(
          span, "spill_partitions",
          StrFormat("%llu", static_cast<unsigned long long>(
                                spill_stats_.partitions -
                                spill_before.partitions)));
      tracer_->AddArg(span, "spill_bytes",
                      StrFormat("%llu", static_cast<unsigned long long>(
                                            spill_stats_.bytes -
                                            spill_before.bytes)));
      tracer_->AddArg(span, "spill_passes",
                      StrFormat("%llu", static_cast<unsigned long long>(
                                            spill_stats_.passes -
                                            spill_before.passes)));
    }
    tracer_->End(span);
  }
  EmitExecMetrics(out->rows.size());
  return status;
}

}  // namespace rodin
