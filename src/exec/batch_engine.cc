#include "exec/batch_engine.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/faults.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "exec/eval_core.h"
#include "exec/exec_abort.h"
#include "exec/vm/compiler.h"
#include "exec/vm/vm.h"
#include "obs/metrics.h"
#include "storage/spill_file.h"

namespace rodin {

namespace {

/// Per-morsel CPU counters. All integral (method cost in fixed point), so
/// partial sums merge to the same totals regardless of morsel boundaries.
struct MorselCounters {
  uint64_t predicate_evals = 0;
  uint64_t method_calls = 0;
  uint64_t method_cost_fp = 0;

  void MergeFrom(const MorselCounters& o) {
    predicate_evals += o.predicate_evals;
    method_calls += o.method_calls;
    method_cost_fp += o.method_cost_fp;
  }
};

/// One in-flight fixpoint delta, by view name. The temp file backs the
/// delta's page accounting (scans charge it) whether or not the rows were
/// spilled; when `spill` is set the row *bytes* live on disk and readers
/// stream them back instead of touching `rows` ("spill wins").
struct DeltaSource {
  const Table* rows = nullptr;
  TempFile temp;
  std::shared_ptr<SpillFile> spill;
};

/// Shared state of one engine instance. Only the coordinator thread mutates
/// it; workers see it exclusively through morsel-local EvalContexts.
struct ExecCtx {
  Database* db = nullptr;
  size_t batch_rows = 1024;
  size_t threads = 1;
  bool hash_equijoin = false;
  bool collect_op_stats = false;
  ThreadPool* pool = nullptr;
  std::map<std::string, FixCacheEntry>* fix_cache = nullptr;

  MorselCounters counters;
  uint64_t fix_iterations = 0;
  /// Bytecode profile (coordinator only): chunks / instructions compiled
  /// while building operators, rows evaluated by the VM (merged from morsel
  /// scratches). Observability only — deliberately outside the
  /// accounting-identity contract.
  uint64_t vm_chunks = 0;
  uint64_t vm_instrs = 0;
  uint64_t vm_rows = 0;
  /// Engine-local per-node profile with *exclusive* page counts; made
  /// inclusive by a plan walk at Finalize, then merged into the executor.
  std::map<const PTNode*, OpStats> local_stats;
  /// Delta tables of in-flight fixpoints, by view name.
  std::map<std::string, DeltaSource> deltas;

  /// Lifecycle budget / fault wiring (coordinator thread only; workers
  /// never consult either).
  const QueryContext* query = nullptr;
  bool inject_faults = false;

  /// Spill policy (see BatchEngine::Config): over-budget temp working sets
  /// move their row bytes to disk instead of aborting. The ledger tracks
  /// the query's *cumulative live* temp pages; spilled temps are not
  /// charged against it (their bytes are on disk, tracked in `spill`).
  bool spill_enabled = true;
  size_t ledger_budget = 0;
  size_t live_temp_pages = 0;
  SpillStats spill;

  /// How many input items a leaf grabs per Next: one output batch per
  /// worker, so every worker has a full morsel of work.
  size_t Quantum() const { return batch_rows * std::max<size_t>(1, threads); }

  /// Coordinator-thread budget poll; throws internal::ExecAbort on a
  /// cancel / deadline trip, an injected page-fetch fault, or a forced
  /// deadline at semi-naive iteration `fix_iter` (0 = not at an iteration
  /// boundary). Called at batch boundaries (BatchEngine::Next, morsel
  /// fan-out) and per fixpoint iteration.
  void CheckAbort(int fix_iter) {
    if (inject_faults) {
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
    if (query != nullptr) {
      if (Status s = query->Check(); !s.ok()) {
        throw internal::ExecAbort(std::move(s));
      }
    }
  }

  /// AllocateTempFile with the cumulative temp-page ledger and alloc-fault
  /// checks. The page-id allocation is identical whether or not the temp
  /// spills, so ChargeTempScan sequences — and with them MeasuredCost — are
  /// bit-identical spill-on vs all-in-memory. Over the remaining budget:
  /// spill (sets *spilled; caller moves the row bytes to disk and skips the
  /// ledger charge) or throw a typed kResourceExhausted with the tripping
  /// operator packed into Status::detail. Only a single row too large for
  /// the whole budget is refused unconditionally.
  TempFile AllocTemp(size_t rows, size_t ncols, SpillOpTag tag,
                     bool* spilled = nullptr) {
    if (spilled != nullptr) *spilled = false;
    if (inject_faults && FaultInjector::Global().InjectAllocFault()) {
      throw internal::ExecAbort(Status::Error(
          Status::Code::kFault, "injected allocation failure"));
    }
    TempFile temp = AllocateTempFile(db, rows, ncols);
    if (ledger_budget == 0) return temp;
    const uint64_t row_pages = TempRowPages(ncols);
    if (row_pages > ledger_budget) {
      throw internal::ExecAbort(MakeResourceExhausted(
          tag, row_pages, ledger_budget, live_temp_pages,
          /*row_refusal=*/true));
    }
    if (live_temp_pages + temp.pages > ledger_budget) {
      if (!spill_enabled) {
        throw internal::ExecAbort(MakeResourceExhausted(
            tag, temp.pages, ledger_budget, live_temp_pages,
            /*row_refusal=*/false));
      }
      ++spill.spills;
      if (spilled != nullptr) *spilled = true;
      return temp;
    }
    live_temp_pages += temp.pages;
    return temp;
  }

  /// Returns pages to the ledger when a temp's in-memory rows are genuinely
  /// freed (fix per-iteration deltas); join temps and fix-cache charges are
  /// held to query end.
  void ReleaseTemp(uint64_t pages) {
    live_temp_pages -= std::min<uint64_t>(live_temp_pages, pages);
  }

  /// Runs fn(i, eval_ctx, row_sink) for every i in [0, n), split into
  /// contiguous morsels across the worker pool. Each morsel evaluates
  /// against its own ChargeLog and counters; results merge in morsel (==
  /// item) order into `log`, `out` and the engine counters, so the merged
  /// state is identical to a sequential left-to-right pass.
  void ParallelItems(
      size_t n,
      const std::function<void(size_t, EvalContext*, std::vector<Row>*)>& fn,
      ChargeLog* log, std::vector<Row>* out) {
    if (n == 0) return;
    // Morsel boundary: the budget poll before fanning out (still on the
    // coordinator; workers never poll or throw).
    CheckAbort(0);
    constexpr size_t kMinMorselItems = 16;
    size_t nmorsels = 1;
    if (pool != nullptr && threads > 1) {
      nmorsels =
          std::min(threads, (n + kMinMorselItems - 1) / kMinMorselItems);
    }
    if (nmorsels <= 1) {
      vm::VmScratch scratch;
      EvalContext ec{db, log, &counters.predicate_evals,
                     &counters.method_calls, &counters.method_cost_fp,
                     &scratch};
      for (size_t i = 0; i < n; ++i) fn(i, &ec, out);
      vm_rows += scratch.rows;
      return;
    }
    struct Morsel {
      ChargeLog log;
      std::vector<Row> rows;
      MorselCounters c;
      vm::VmScratch scratch;
    };
    std::vector<Morsel> morsels(nmorsels);
    for (size_t m = 0; m < nmorsels; ++m) {
      const size_t lo = n * m / nmorsels;
      const size_t hi = n * (m + 1) / nmorsels;
      Morsel* dst = &morsels[m];
      pool->Submit([this, &fn, dst, lo, hi] {
        EvalContext ec{db, &dst->log, &dst->c.predicate_evals,
                       &dst->c.method_calls, &dst->c.method_cost_fp,
                       &dst->scratch};
        for (size_t i = lo; i < hi; ++i) fn(i, &ec, &dst->rows);
      });
    }
    pool->Wait();
    for (Morsel& m : morsels) {
      log->Append(m.log);
      for (Row& r : m.rows) out->push_back(std::move(r));
      counters.MergeFrom(m.c);
      vm_rows += m.scratch.rows;
    }
  }
};

/// Writes `rows` to a fresh spill file (coordinator only), polling the
/// abort check between blocks so a cancel or deadline lands mid-spill; the
/// partially written file unwinds with the shared_ptr. Folds the file's
/// size into the engine's spill profile.
std::shared_ptr<SpillFile> SpillRows(ExecCtx* ctx,
                                     const std::vector<Row>& rows) {
  auto spill = std::make_shared<SpillFile>();
  for (size_t i = 0; i < rows.size(); ++i) {
    if ((i & 1023) == 1023) ctx->CheckAbort(0);
    spill->AppendRow(rows[i]);
  }
  spill->Finish();
  ctx->spill.bytes += spill->bytes();
  ctx->spill.partitions += spill->Partitions(ctx->ledger_budget);
  return spill;
}

/// Pre-dedup accumulation buffer for Proj/Union. In memory it reproduces
/// Table::Dedup() exactly; when the buffered working set outgrows the
/// remaining ledger budget (and spilling is on) it drains sorted runs to
/// disk and K-way merge-uniques them at Finish — the merge emits the same
/// sorted duplicate-free sequence sort+unique would. With spilling off the
/// buffer never spills (dedup was never budget-checked, so no new refusal
/// sites appear).
class DedupBuffer {
 public:
  DedupBuffer(ExecCtx* ctx, RowSchema schema) : ctx_(ctx) {
    out_.schema = std::move(schema);
  }

  /// Takes ownership of `rows` (cleared on return).
  void Add(std::vector<Row>* rows) {
    for (Row& r : *rows) buf_.push_back(std::move(r));
    rows->clear();
    if (!OverBudget() || buf_.empty()) return;
    SortUnique(&buf_);
    if (!OverBudget()) return;
    runs_.push_back(SpillRows(ctx_, buf_));
    ++ctx_->spill.spills;
    buf_.clear();
    buf_.shrink_to_fit();
  }

  Table Finish() {
    SortUnique(&buf_);
    if (runs_.empty()) {
      out_.rows = std::move(buf_);
      return std::move(out_);
    }
    // K-way merge-unique of the sorted runs plus the sorted tail buffer.
    // Ties resolve to the lowest cursor index; since RowEq-equal rows are
    // interchangeable the output matches an in-memory sort+unique.
    struct Cursor {
      SpillFile* run = nullptr;           // null = the in-memory tail
      const std::vector<Row>* mem = nullptr;
      size_t pos = 0, size = 0;
      Row row;
      bool Load() {
        if (pos >= size) return false;
        row = run != nullptr ? run->ReadRow(pos) : (*mem)[pos];
        ++pos;
        return true;
      }
    };
    std::vector<Cursor> curs;
    for (const auto& r : runs_) {
      Cursor c;
      c.run = r.get();
      c.size = r->rows();
      ++ctx_->spill.passes;
      if (c.Load()) curs.push_back(std::move(c));
    }
    {
      Cursor c;
      c.mem = &buf_;
      c.size = buf_.size();
      if (c.Load()) curs.push_back(std::move(c));
    }
    size_t emitted = 0;
    while (!curs.empty()) {
      size_t best = 0;
      for (size_t i = 1; i < curs.size(); ++i) {
        if (Table::RowLess(curs[i].row, curs[best].row)) best = i;
      }
      if (out_.rows.empty() || !Table::RowEq(out_.rows.back(), curs[best].row)) {
        out_.rows.push_back(std::move(curs[best].row));
        if ((++emitted & 1023) == 0) ctx_->CheckAbort(0);
      }
      if (!curs[best].Load()) curs.erase(curs.begin() + best);
    }
    buf_.clear();
    runs_.clear();
    return std::move(out_);
  }

 private:
  static void SortUnique(std::vector<Row>* rows) {
    std::sort(rows->begin(), rows->end(), Table::RowLess);
    rows->erase(std::unique(rows->begin(), rows->end(), Table::RowEq),
                rows->end());
  }

  bool OverBudget() const {
    if (ctx_->ledger_budget == 0 || !ctx_->spill_enabled) return false;
    const uint64_t ncols =
        std::max<uint64_t>(1, out_.schema.cols.size());
    const uint64_t pages =
        (static_cast<uint64_t>(buf_.size()) * 16 * ncols +
         kPageSizeBytes - 1) /
        kPageSizeBytes;
    const uint64_t remaining =
        ctx_->ledger_budget > ctx_->live_temp_pages
            ? ctx_->ledger_budget - ctx_->live_temp_pages
            : 0;
    return pages > remaining;
  }

  ExecCtx* ctx_;
  Table out_;
  std::vector<Row> buf_;
  std::vector<std::shared_ptr<SpillFile>> runs_;
};

/// Counts a freshly compiled chunk into the engine's vm profile.
vm::BytecodeChunk Profiled(ExecCtx* ctx, vm::BytecodeChunk chunk) {
  ++ctx->vm_chunks;
  ctx->vm_instrs += chunk.code.size();
  return chunk;
}

/// Compiles an operator's predicate (null = always true), multi-value
/// expression or projection list to bytecode bound to the engine's
/// database. Every operator expression runs compiled.
vm::BytecodeChunk CompilePredChunk(ExecCtx* ctx, const ExprPtr& pred,
                                   const RowSchema& schema) {
  return Profiled(ctx, vm::CompilePredicate(pred, schema, *ctx->db));
}

vm::BytecodeChunk CompileMultiChunk(ExecCtx* ctx, const ExprPtr& expr,
                                    const RowSchema& schema) {
  return Profiled(ctx, vm::CompileMulti(expr, schema, *ctx->db));
}

vm::BytecodeChunk CompileProjChunk(ExecCtx* ctx,
                                   const std::vector<OutCol>& proj,
                                   const RowSchema& schema) {
  return Profiled(ctx, vm::CompileProjection(proj, schema, *ctx->db));
}

/// Base batched operator: pull-based Open-on-first-Next / NextBatch / (no
/// explicit Close — destruction closes). Page charges accumulate in the
/// per-operator `log_`; Replay() emits the whole subtree's charges in the
/// canonical whole-table order (children left-to-right, then own).
class Op {
 public:
  Op(ExecCtx* ctx, const PTNode* node) : ctx_(ctx), node_(node) {}
  virtual ~Op() = default;

  Op(const Op&) = delete;
  Op& operator=(const Op&) = delete;

  /// Pulls the next batch (<= ctx->batch_rows rows). False = exhausted.
  /// May legitimately return true with an empty batch (e.g. a filter pass
  /// that rejected its whole input); callers keep pulling.
  bool Pull(RowBatch* out) {
    out->Clear();
    pulled_ = true;
    if (!ctx_->collect_op_stats) {
      const bool more = Next(out);
      rows_out_ += out->size();
      return more;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const bool more = Next(out);
    micros_ +=
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            std::chrono::steady_clock::now() - t0)
            .count();
    rows_out_ += out->size();
    return more;
  }

  const RowSchema& schema() const { return schema_; }

  /// Replays the subtree's page charges into `sink` in canonical order:
  /// children first (left to right), then this operator's own charges —
  /// exactly the temporal order of the materialized bottom-up evaluator.
  virtual void Replay(PageCharger* sink) {
    for (auto& c : children_) c->Replay(sink);
    log_.ReplayInto(sink);
  }

  /// Folds this pass's profile into the engine-local stats. One call per
  /// operator instance (Fix arms are fresh instances per iteration, so the
  /// per-iteration invocation counts match a whole-table evaluation).
  virtual void Harvest() {
    if (!pulled_) return;
    OpStats& s = ctx_->local_stats[node_];
    ++s.invocations;
    s.rows += rows_out_;
    s.pages += log_.size();
    s.micros += micros_;
    for (auto& c : children_) c->Harvest();
  }

 protected:
  virtual bool Next(RowBatch* out) = 0;

  /// Moves up to batch_rows pending rows into `out`. Ops that can produce
  /// more rows per pass than a batch holds (scans with a multi-thread
  /// quantum, fan-out joins, projections over collections) buffer the
  /// overflow here.
  bool ServePending(RowBatch* out) {
    if (pending_pos_ >= pending_.size()) return false;
    const size_t take =
        std::min(ctx_->batch_rows, pending_.size() - pending_pos_);
    out->rows.reserve(out->rows.size() + take);
    for (size_t i = 0; i < take; ++i) {
      out->rows.push_back(std::move(pending_[pending_pos_ + i]));
    }
    pending_pos_ += take;
    if (pending_pos_ >= pending_.size()) {
      pending_.clear();
      pending_pos_ = 0;
    }
    return true;
  }

  ExecCtx* ctx_;
  const PTNode* node_;
  std::vector<std::unique_ptr<Op>> children_;
  RowSchema schema_;
  ChargeLog log_;
  std::vector<Row> pending_;
  size_t pending_pos_ = 0;
  uint64_t rows_out_ = 0;
  double micros_ = 0;
  bool pulled_ = false;
};

std::unique_ptr<Op> BuildOp(ExecCtx* ctx, const PTNode* node);

/// Fully drains an operator into a materialized table (the barrier
/// primitive: NL-join inners, fixpoint arms, union branches).
Table DrainOp(Op* op) {
  Table t;
  t.schema = op->schema();
  RowBatch b;
  while (op->Pull(&b)) {
    for (Row& r : b.rows) t.rows.push_back(std::move(r));
  }
  return t;
}

// --- Leaves ----------------------------------------------------------------

class EntityScanOp : public Op {
 public:
  EntityScanOp(ExecCtx* ctx, const PTNode* node) : Op(ctx, node) {
    schema_.cols = node->cols;
    src_ = ctx->db->ResolveScan(node->entity);
  }

 protected:
  bool Next(RowBatch* out) override {
    if (ServePending(out)) return true;
    if (pos_ >= src_.size()) return false;
    const size_t n = std::min(ctx_->Quantum(), src_.size() - pos_);
    const size_t base = pos_;
    ctx_->ParallelItems(
        n,
        [this, base](size_t i, EvalContext* ec, std::vector<Row>* rows) {
          const uint32_t slot = (*src_.slots)[base + i];
          ec->charger->Charge(src_.extent->PageOf(slot, src_.vfrag));
          rows->push_back(Row{Value::Ref(Oid{src_.base_class, slot})});
        },
        &log_, &pending_);
    pos_ += n;
    ServePending(out);
    return true;
  }

 private:
  Database::ScanSource src_;
  size_t pos_ = 0;
};

class DeltaScanOp : public Op {
 public:
  DeltaScanOp(ExecCtx* ctx, const PTNode* node) : Op(ctx, node) {
    schema_.cols = node->cols;
  }

 protected:
  bool Next(RowBatch* out) override {
    if (!opened_) {
      opened_ = true;
      auto it = ctx_->deltas.find(node_->fix_name);
      RODIN_CHECK(it != ctx_->deltas.end(),
                  "delta referenced outside its fixpoint");
      src_ = &it->second;
      ChargeTempScan(src_->temp, &log_);
      RODIN_CHECK(src_->rows->schema.cols.size() == node_->cols.size(),
                  "delta column arity mismatch");
      if (src_->spill != nullptr) ++ctx_->spill.passes;
    }
    const size_t total = src_->spill != nullptr ? src_->spill->rows()
                                                : src_->rows->rows.size();
    if (pos_ >= total) return false;
    const size_t take = std::min(ctx_->batch_rows, total - pos_);
    out->rows.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      if (src_->spill != nullptr) {
        out->rows.push_back(src_->spill->ReadRow(pos_ + i));
      } else {
        out->rows.push_back(src_->rows->rows[pos_ + i]);
      }
    }
    pos_ += take;
    return true;
  }

 private:
  bool opened_ = false;
  const DeltaSource* src_ = nullptr;
  size_t pos_ = 0;
};

// --- Selections ------------------------------------------------------------

/// Fused scan + filter: one pass over the extent (Figure 5's Sel(C)). The
/// entity child is absorbed into the scan.
class FilterScanOp : public Op {
 public:
  FilterScanOp(ExecCtx* ctx, const PTNode* node) : Op(ctx, node) {
    schema_.cols = node->cols;
    src_ = ctx->db->ResolveScan(node->children[0]->entity);
    pred_chunk_ = CompilePredChunk(ctx, node->pred, schema_);
  }

 protected:
  bool Next(RowBatch* out) override {
    if (ServePending(out)) return true;
    if (pos_ >= src_.size()) return false;
    const size_t n = std::min(ctx_->Quantum(), src_.size() - pos_);
    const size_t base = pos_;
    ctx_->ParallelItems(
        n,
        [this, base](size_t i, EvalContext* ec, std::vector<Row>* rows) {
          const uint32_t slot = (*src_.slots)[base + i];
          ec->charger->Charge(src_.extent->PageOf(slot, src_.vfrag));
          Row row{Value::Ref(Oid{src_.base_class, slot})};
          ++*ec->predicate_evals;
          if (vm::RunPred(pred_chunk_, ec, row, ec->vm)) {
            rows->push_back(std::move(row));
          }
        },
        &log_, &pending_);
    pos_ += n;
    ServePending(out);
    return true;
  }

 private:
  Database::ScanSource src_;
  size_t pos_ = 0;
  vm::BytecodeChunk pred_chunk_;
};

/// Index-backed selection. The B-tree probe runs once on the coordinator
/// (descent + leaf charges in index order); qualifying records fan out
/// across morsels.
class IndexSelOp : public Op {
 public:
  IndexSelOp(ExecCtx* ctx, const PTNode* node) : Op(ctx, node) {
    schema_.cols = node->cols;
    const PTNode& child = *node->children[0];
    RODIN_CHECK(child.kind == PTKind::kEntity, "index access needs entity");
    RODIN_CHECK(node->sel_index != nullptr, "index access without an index");
    extent_ = child.entity.extent;
    pred_chunk_ = CompilePredChunk(ctx, node->pred, schema_);
  }

 protected:
  bool Next(RowBatch* out) override {
    if (!looked_) {
      looked_ = true;
      Value literal;
      bool path_left = true;
      RODIN_CHECK(node_->sel_index_pred != nullptr &&
                      SplitProbe(*node_->sel_index_pred, &literal, &path_left),
                  "malformed index probe predicate");
      if (node_->sel_access == SelAccess::kIndexEq) {
        payloads_ = node_->sel_index->Lookup(literal, &log_);
      } else {
        // One-sided range: orient by operator and which side the path is on.
        const CompareOp op = node_->sel_index_pred->compare_op();
        const bool upper = path_left
                               ? (op == CompareOp::kLt || op == CompareOp::kLe)
                               : (op == CompareOp::kGt || op == CompareOp::kGe);
        const bool strict = op == CompareOp::kLt || op == CompareOp::kGt;
        if (upper) {
          payloads_ = node_->sel_index->RangeLookup(Value::Null(), false,
                                                    literal, strict, &log_);
        } else {
          payloads_ = node_->sel_index->RangeLookup(literal, strict,
                                                    Value::Null(), false, &log_);
        }
      }
    }
    if (ServePending(out)) return true;
    if (pos_ >= payloads_.size()) return false;
    const size_t n = std::min(ctx_->Quantum(), payloads_.size() - pos_);
    const size_t base = pos_;
    ctx_->ParallelItems(
        n,
        [this, base](size_t i, EvalContext* ec, std::vector<Row>* rows) {
          const Oid oid = ctx_->db->PayloadToOid(extent_, payloads_[base + i]);
          ctx_->db->ChargeRecordAccess(oid, ec->charger);
          Row row{Value::Ref(oid)};
          ++*ec->predicate_evals;
          if (vm::RunPred(pred_chunk_, ec, row, ec->vm)) {
            rows->push_back(std::move(row));
          }
        },
        &log_, &pending_);
    pos_ += n;
    ServePending(out);
    return true;
  }

 private:
  std::string extent_;
  bool looked_ = false;
  std::vector<uint64_t> payloads_;
  size_t pos_ = 0;
  vm::BytecodeChunk pred_chunk_;
};

/// General selection over a non-entity child: streams batches through the
/// predicate.
class FilterOp : public Op {
 public:
  FilterOp(ExecCtx* ctx, const PTNode* node) : Op(ctx, node) {
    schema_.cols = node->cols;
    children_.push_back(BuildOp(ctx, node->children[0].get()));
    pred_chunk_ = CompilePredChunk(ctx, node->pred, children_[0]->schema());
  }

 protected:
  bool Next(RowBatch* out) override {
    if (ServePending(out)) return true;
    RowBatch in;
    if (!children_[0]->Pull(&in)) return false;
    ctx_->ParallelItems(
        in.size(),
        [this, &in](size_t i, EvalContext* ec, std::vector<Row>* rows) {
          ++*ec->predicate_evals;
          if (vm::RunPred(pred_chunk_, ec, in.rows[i], ec->vm)) {
            rows->push_back(std::move(in.rows[i]));
          }
        },
        &log_, &pending_);
    ServePending(out);
    return true;
  }

 private:
  vm::BytecodeChunk pred_chunk_;
};

// --- Projection ------------------------------------------------------------

class ProjOp : public Op {
 public:
  ProjOp(ExecCtx* ctx, const PTNode* node) : Op(ctx, node) {
    schema_.cols = node->cols;
    children_.push_back(BuildOp(ctx, node->children[0].get()));
    proj_chunk_ = CompileProjChunk(ctx, node->proj, children_[0]->schema());
  }

 protected:
  bool Next(RowBatch* out) override {
    if (node_->dedup) return NextDedup(out);
    if (ServePending(out)) return true;
    RowBatch in;
    if (!children_[0]->Pull(&in)) return false;
    ProjectBatch(in);
    ServePending(out);
    return true;
  }

 private:
  void ProjectBatch(const RowBatch& in) {
    ctx_->ParallelItems(
        in.size(),
        [this, &in](size_t i, EvalContext* ec, std::vector<Row>* rows) {
          // Cartesian product of the (possibly multi-valued) projections:
          // the chunk leaves column k's values in VM register k (registers
          // reused across rows), and an odometer walks their product.
          const size_t n = vm::RunProj(proj_chunk_, ec, in.rows[i], ec->vm);
          const std::vector<std::vector<Value>>& cols = ec->vm->vregs;
          for (size_t k = 0; k < n; ++k) {
            if (cols[k].empty()) return;
          }
          std::vector<size_t> idx(n, 0);
          bool done = false;
          while (!done) {
            Row r;
            r.reserve(n);
            for (size_t k = 0; k < n; ++k) r.push_back(cols[k][idx[k]]);
            rows->push_back(std::move(r));
            // Odometer increment, rightmost column fastest.
            size_t k = n;
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
        },
        &log_, &pending_);
  }

  bool NextDedup(RowBatch* out) {
    if (!materialized_) {
      materialized_ = true;
      RowSchema s;
      s.cols = node_->cols;
      DedupBuffer buf(ctx_, std::move(s));
      RowBatch in;
      while (children_[0]->Pull(&in)) {
        ProjectBatch(in);
        buf.Add(&pending_);
        pending_pos_ = 0;
      }
      dedup_ = buf.Finish();
    }
    if (pos_ >= dedup_.rows.size()) return false;
    const size_t take = std::min(ctx_->batch_rows, dedup_.rows.size() - pos_);
    out->rows.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      out->rows.push_back(std::move(dedup_.rows[pos_ + i]));
    }
    pos_ += take;
    return true;
  }

  bool materialized_ = false;
  Table dedup_;
  size_t pos_ = 0;
  vm::BytecodeChunk proj_chunk_;
};

// --- Joins -----------------------------------------------------------------

/// Implicit join: navigate one object attribute per input row.
class IJOp : public Op {
 public:
  IJOp(ExecCtx* ctx, const PTNode* node) : Op(ctx, node) {
    schema_.cols = node->cols;
    children_.push_back(BuildOp(ctx, node->children[0].get()));
    std::vector<std::string> rest;
    RODIN_CHECK(children_[0]->schema().ResolveVarPath(node->src_var,
                                                      {node->attr}, &col_,
                                                      &rest),
                "IJ source unresolvable at runtime");
    // A dotted column already holds the reference; otherwise the source
    // object's attribute is read through a bound step.
    if (!rest.empty()) step_ = BindPath(*ctx->db, std::move(rest));
  }

 protected:
  bool Next(RowBatch* out) override {
    if (ServePending(out)) return true;
    RowBatch in;
    if (!children_[0]->Pull(&in)) return false;
    ctx_->ParallelItems(
        in.size(),
        [this, &in](size_t i, EvalContext* ec, std::vector<Row>* rows) {
          const Row& row = in.rows[i];
          std::vector<Value>& targets = ec->vm->tmp;
          targets.clear();
          NavigateBound(ec, row[col_], step_, 0, &targets);
          for (const Value& t : targets) {
            if (!t.is_ref()) continue;
            ctx_->db->ChargeRecordAccess(t.AsRef(), ec->charger);
            Row r = row;
            r.push_back(t);
            rows->push_back(std::move(r));
          }
        },
        &log_, &pending_);
    ServePending(out);
    return true;
  }

 private:
  int col_ = -1;
  BoundPath step_;  // empty for a dotted column: NavigateBound just expands
};

/// Implicit join through a path index.
class PIJOp : public Op {
 public:
  PIJOp(ExecCtx* ctx, const PTNode* node) : Op(ctx, node) {
    schema_.cols = node->cols;
    children_.push_back(BuildOp(ctx, node->children[0].get()));
    col_ = children_[0]->schema().IndexOf(node->src_var);
    RODIN_CHECK(col_ >= 0, "PIJ source column missing at runtime");
  }

 protected:
  bool Next(RowBatch* out) override {
    if (ServePending(out)) return true;
    RowBatch in;
    if (!children_[0]->Pull(&in)) return false;
    ctx_->ParallelItems(
        in.size(),
        [this, &in](size_t i, EvalContext* ec, std::vector<Row>* rows) {
          const Row& row = in.rows[i];
          if (!row[col_].is_ref()) return;
          const auto entries =
              node_->path_index->Lookup(row[col_].AsRef(), ec->charger);
          for (const std::vector<Oid>* entry : entries) {
            Row r = row;
            for (size_t k = 0; k < node_->path_out_vars.size(); ++k) {
              if (!node_->path_out_vars[k].empty()) {
                r.push_back(Value::Ref((*entry)[k + 1]));
              }
            }
            rows->push_back(std::move(r));
          }
        },
        &log_, &pending_);
    ServePending(out);
    return true;
  }

 private:
  int col_ = -1;
};

/// Explicit join via the inner's B-tree: probe per outer row.
class IndexJoinOp : public Op {
 public:
  IndexJoinOp(ExecCtx* ctx, const PTNode* node) : Op(ctx, node) {
    schema_.cols = node->cols;
    const PTNode& right = *node->children[1];
    RODIN_CHECK(right.kind == PTKind::kEntity,
                "index join needs an entity inner");
    RODIN_CHECK(node->join_index != nullptr, "index join without an index");
    children_.push_back(BuildOp(ctx, node->children[0].get()));
    probe_ = ExtractIndexProbe(*node, right.binding, &residual_);
    RODIN_CHECK(probe_ != nullptr, "index join probe not found in predicate");
    extent_ = right.entity.extent;
    probe_chunk_ = CompileMultiChunk(ctx, probe_, children_[0]->schema());
    residual_chunk_ = CompilePredChunk(ctx, residual_, schema_);
  }

 protected:
  bool Next(RowBatch* out) override {
    if (ServePending(out)) return true;
    RowBatch in;
    if (!children_[0]->Pull(&in)) return false;
    ctx_->ParallelItems(
        in.size(),
        [this, &in](size_t i, EvalContext* ec, std::vector<Row>* rows) {
          const Row& lrow = in.rows[i];
          // Owned copy: the residual chunk below reuses the same morsel
          // registers, so the probe keys must not alias them.
          const std::vector<Value> keys =
              vm::RunMulti(probe_chunk_, ec, lrow, ec->vm);
          for (const Value& key : keys) {
            const std::vector<uint64_t> payloads =
                node_->join_index->Lookup(key, ec->charger);
            for (uint64_t p : payloads) {
              const Oid oid = ctx_->db->PayloadToOid(extent_, p);
              ctx_->db->ChargeRecordAccess(oid, ec->charger);
              Row row = lrow;
              row.push_back(Value::Ref(oid));
              ++*ec->predicate_evals;
              if (vm::RunPred(residual_chunk_, ec, row, ec->vm)) {
                rows->push_back(std::move(row));
              }
            }
          }
        },
        &log_, &pending_);
    ServePending(out);
    return true;
  }

 private:
  ExprPtr probe_;
  ExprPtr residual_;
  std::string extent_;
  vm::BytecodeChunk probe_chunk_;
  vm::BytecodeChunk residual_chunk_;
};

/// Nested-loop explicit join. A barrier: both sides materialize before
/// probing (the inner must exist in full, and re-scan charges are per
/// outer row). Probing is morsel-parallel over the
/// outer side. With ExecOptions::hash_equijoin and an extractable equi
/// conjunct, the inner is loaded into a hash table instead — same result
/// rows in the same order, different (honest) accounting.
class NLJoinOp : public Op {
 public:
  NLJoinOp(ExecCtx* ctx, const PTNode* node) : Op(ctx, node) {
    schema_.cols = node->cols;
    children_.push_back(BuildOp(ctx, node->children[0].get()));
    children_.push_back(BuildOp(ctx, node->children[1].get()));
    pred_chunk_ = CompilePredChunk(ctx, node->pred, schema_);
  }

 protected:
  bool Next(RowBatch* out) override {
    if (ServePending(out)) return true;
    if (!opened_) {
      opened_ = true;
      Open();
    }
    while (pos_ < left_.rows.size()) {
      ProbeChunk();
      if (ServePending(out)) return true;
    }
    return false;
  }

 private:
  struct ValueLess {
    bool operator()(const Value& a, const Value& b) const {
      return a.Compare(b) < 0;
    }
  };

  void Open() {
    left_ = DrainOp(children_[0].get());
    right_ = DrainOp(children_[1].get());
    const PTNode& rnode = *node_->children[1];
    const bool inner_entity =
        rnode.kind == PTKind::kEntity || rnode.kind == PTKind::kDelta;
    bool spill_inner = false;
    if (rnode.kind == PTKind::kEntity) {
      const Extent* e = ctx_->db->FindExtent(rnode.entity.extent);
      inner_pages_ = e->ScanPages(rnode.entity.vfrag, rnode.entity.hfrag);
    } else if (!inner_entity) {
      temp_ = ctx_->AllocTemp(right_.rows.size(), right_.schema.cols.size(),
                              SpillOpTag::kJoinBuild, &spill_inner);
    }
    if (rnode.kind == PTKind::kDelta) {
      auto it = ctx_->deltas.find(rnode.fix_name);
      if (it != ctx_->deltas.end()) {
        delta_temp_ = it->second.temp;
        has_delta_temp_ = true;
      }
    }
    // Hash build first: key evaluation (and its accounting) runs over the
    // in-memory rows exactly as without spilling. Only then do the build
    // rows move to disk; probes read them back by index.
    if (ctx_->hash_equijoin) TryBuildHash();
    if (spill_inner) {
      right_spill_ = SpillRows(ctx_, right_.rows);
      right_count_ = right_.rows.size();
      right_.rows.clear();
      right_.rows.shrink_to_fit();
      if (hash_built_) ++ctx_->spill.passes;
    }
  }

  /// Picks the first Eq conjunct whose sides resolve unambiguously against
  /// the outer and inner schemas respectively; builds inner-key -> row-index
  /// buckets, morsel-parallel (keys merged in inner-row order).
  void TryBuildHash() {
    if (node_->pred == nullptr) return;
    const RowSchema& ls = children_[0]->schema();
    const RowSchema& rs = children_[1]->schema();
    auto resolvable = [](const RowSchema& s, const ExprPtr& e) {
      if (e == nullptr || e->kind() != ExprKind::kVarPath) return false;
      int col = -1;
      std::vector<std::string> rest;
      return s.ResolveVarPath(e->var(), e->path(), &col, &rest);
    };
    for (const ExprPtr& c : node_->pred->Conjuncts()) {
      if (c->kind() != ExprKind::kCompare ||
          c->compare_op() != CompareOp::kEq) {
        continue;
      }
      const ExprPtr& l = c->children()[0];
      const ExprPtr& r = c->children()[1];
      if (resolvable(ls, l) && !resolvable(rs, l) && resolvable(rs, r) &&
          !resolvable(ls, r)) {
        probe_ = l;
        build_ = r;
        break;
      }
      if (resolvable(ls, r) && !resolvable(rs, r) && resolvable(rs, l) &&
          !resolvable(ls, l)) {
        probe_ = r;
        build_ = l;
        break;
      }
    }
    if (probe_ == nullptr) return;
    probe_chunk_ = CompileMultiChunk(ctx_, probe_, children_[0]->schema());
    build_chunk_ = CompileMultiChunk(ctx_, build_, children_[1]->schema());
    // Build: evaluate the inner key expression per inner row. Key rows are
    // {key, row_index} pairs funneled through the morsel row sink.
    std::vector<Row> keyed;
    ctx_->ParallelItems(
        right_.rows.size(),
        [this](size_t i, EvalContext* ec, std::vector<Row>* rows) {
          std::vector<Value> keys =
              vm::RunMulti(build_chunk_, ec, right_.rows[i], ec->vm);
          std::sort(keys.begin(), keys.end(),
                    [](const Value& a, const Value& b) {
                      return a.Compare(b) < 0;
                    });
          keys.erase(std::unique(keys.begin(), keys.end(),
                                 [](const Value& a, const Value& b) {
                                   return a.Compare(b) == 0;
                                 }),
                     keys.end());
          for (Value& k : keys) {
            rows->push_back(
                Row{std::move(k), Value::Int(static_cast<int64_t>(i))});
          }
        },
        &log_, &keyed);
    for (Row& kr : keyed) {
      hash_[std::move(kr[0])].push_back(
          static_cast<size_t>(kr[1].AsInt()));
    }
    hash_built_ = true;
  }

  /// Overwrites the inner part of the joined row `*row` (outer columns
  /// [0, nl) stay) with `rrow`. The row is reused across a whole outer
  /// row's probes, so only matches are copied out.
  static void JoinInto(size_t nl, const Row& rrow, Row* row) {
    row->resize(nl);
    row->insert(row->end(), rrow.begin(), rrow.end());
  }

  void ProbeChunk() {
    const size_t n = std::min(ctx_->Quantum(), left_.rows.size() - pos_);
    const size_t base = pos_;
    if (hash_built_) {
      ctx_->ParallelItems(
          n,
          [this, base](size_t i, EvalContext* ec, std::vector<Row>* rows) {
            const Row& lrow = left_.rows[base + i];
            const std::vector<Value> keys =
                vm::RunMulti(probe_chunk_, ec, lrow, ec->vm);
            std::vector<size_t> cand;
            for (const Value& k : keys) {
              auto it = hash_.find(k);
              if (it == hash_.end()) continue;
              cand.insert(cand.end(), it->second.begin(), it->second.end());
            }
            std::sort(cand.begin(), cand.end());
            cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
            Row row = lrow;
            for (size_t ri : cand) {
              Row spill_row;
              if (right_spill_ != nullptr) {
                spill_row = right_spill_->ReadRow(ri);
              }
              const Row& rrow =
                  right_spill_ != nullptr ? spill_row : right_.rows[ri];
              JoinInto(lrow.size(), rrow, &row);
              ++*ec->predicate_evals;
              if (vm::RunPred(pred_chunk_, ec, row, ec->vm)) {
                rows->push_back(row);
              }
            }
          },
          &log_, &pending_);
    } else {
      // Each outer row streams the whole spilled inner once (one read-back
      // pass per outer row; counted on the coordinator).
      if (right_spill_ != nullptr) ctx_->spill.passes += n;
      const size_t rcount =
          right_spill_ != nullptr ? right_count_ : right_.rows.size();
      ctx_->ParallelItems(
          n,
          [this, base, rcount](size_t i, EvalContext* ec,
                               std::vector<Row>* rows) {
            const Row& lrow = left_.rows[base + i];
            if (base + i != 0) {
              // Re-scan charge for the inner, positioned before this outer
              // row's probe work (the whole-table per-outer-row order).
              if (!inner_pages_.empty()) {
                for (PageId p : inner_pages_) ec->charger->Charge(p);
              } else if (temp_.pages > 0) {
                ChargeTempScan(temp_, ec->charger);
              }
              // Delta inners are charged by the delta scan once; re-scans
              // of the delta temp are charged here.
              if (has_delta_temp_) ChargeTempScan(delta_temp_, ec->charger);
            }
            Row row = lrow;
            for (size_t ri = 0; ri < rcount; ++ri) {
              Row spill_row;
              if (right_spill_ != nullptr) {
                spill_row = right_spill_->ReadRow(ri);
              }
              const Row& rrow =
                  right_spill_ != nullptr ? spill_row : right_.rows[ri];
              JoinInto(lrow.size(), rrow, &row);
              ++*ec->predicate_evals;
              if (vm::RunPred(pred_chunk_, ec, row, ec->vm)) {
                rows->push_back(row);
              }
            }
          },
          &log_, &pending_);
    }
    pos_ += n;
  }

  bool opened_ = false;
  Table left_;
  Table right_;
  std::shared_ptr<SpillFile> right_spill_;
  size_t right_count_ = 0;
  size_t pos_ = 0;
  std::vector<PageId> inner_pages_;
  TempFile temp_;
  TempFile delta_temp_;
  bool has_delta_temp_ = false;
  ExprPtr probe_;
  ExprPtr build_;
  std::map<Value, std::vector<size_t>, ValueLess> hash_;
  bool hash_built_ = false;
  vm::BytecodeChunk pred_chunk_;
  vm::BytecodeChunk probe_chunk_;
  vm::BytecodeChunk build_chunk_;
};

// --- Union -----------------------------------------------------------------

class UnionOp : public Op {
 public:
  UnionOp(ExecCtx* ctx, const PTNode* node) : Op(ctx, node) {
    schema_.cols = node->cols;
    for (const auto& c : node->children) {
      children_.push_back(BuildOp(ctx, c.get()));
    }
  }

 protected:
  bool Next(RowBatch* out) override {
    if (!materialized_) {
      materialized_ = true;
      RowSchema s;
      s.cols = node_->cols;
      DedupBuffer buf(ctx_, std::move(s));
      for (auto& c : children_) {
        Table t = DrainOp(c.get());
        buf.Add(&t.rows);
      }
      all_ = buf.Finish();
    }
    if (pos_ >= all_.rows.size()) return false;
    const size_t take = std::min(ctx_->batch_rows, all_.rows.size() - pos_);
    out->rows.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      out->rows.push_back(std::move(all_.rows[pos_ + i]));
    }
    pos_ += take;
    return true;
  }

 private:
  bool materialized_ = false;
  Table all_;
  size_t pos_ = 0;
};

// --- Fixpoint --------------------------------------------------------------

/// Semi-naive fixpoint. A hard barrier: the whole fixpoint runs at first
/// pull. Each iteration builds a fresh operator tree for the recursive arm
/// (mirroring a whole-table re-evaluation, including nested fix caching),
/// drains it with the current delta installed, harvests its stats and
/// flattens its charges into one per-iteration log. Replay order is
/// base subtree, then iteration 1..n arm charges, then own (cache-hit temp
/// scan) charges — the whole-table temporal order.
class FixOp : public Op {
 public:
  FixOp(ExecCtx* ctx, const PTNode* node) : Op(ctx, node) {
    schema_.cols = node->cols;
    children_.push_back(BuildOp(ctx, node->children[0].get()));
  }

  void Replay(PageCharger* sink) override {
    children_[0]->Replay(sink);
    for (const ChargeLog& l : iter_logs_) l.ReplayInto(sink);
    log_.ReplayInto(sink);
  }

 protected:
  bool Next(RowBatch* out) override {
    if (!computed_) {
      computed_ = true;
      Compute();
    }
    if (pos_ >= serve_src_->rows.size()) return false;
    const size_t take =
        std::min(ctx_->batch_rows, serve_src_->rows.size() - pos_);
    out->rows.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      if (own_rows_) {
        out->rows.push_back(std::move(result_.rows[pos_ + i]));
      } else {
        out->rows.push_back(serve_src_->rows[pos_ + i]);
      }
    }
    pos_ += take;
    return true;
  }

 private:
  void Compute() {
    const PTNode& node = *node_;
    const bool cacheable = !HasForeignDelta(node, node.fix_name);
    std::string key;
    if (cacheable && ctx_->fix_cache != nullptr) {
      key = node.Fingerprint();
      auto it = ctx_->fix_cache->find(key);
      if (it != ctx_->fix_cache->end()) {
        ChargeTempScan(it->second.temp, &log_);
        if (it->second.spill != nullptr) {
          // Spilled cache entry: stream the result back (the temp-scan
          // charge above is identical either way).
          ++ctx_->spill.passes;
          result_.schema.cols = node.cols;
          it->second.spill->ReadAll(&result_.rows);
          serve_src_ = &result_;
          own_rows_ = true;
        } else {
          serve_src_ = &it->second.result;
        }
        return;
      }
    }
    Table base = DrainOp(children_[0].get());
    base.Dedup();

    result_.schema.cols = node.cols;
    result_.rows = base.rows;

    std::set<Row, bool (*)(const Row&, const Row&)> seen(&Table::RowLess);
    for (const Row& r : base.rows) seen.insert(r);

    // Semi-naive: feed only the last iteration's new tuples into the
    // recursive arm. Naive mode feeds the whole accumulated result each
    // round (re-deriving everything) — the evaluation strategy Figure 5's
    // cost formula improves on.
    Table delta = std::move(base);
    bool progress = true;
    int iter = 0;
    while (progress && !result_.rows.empty()) {
      // Iteration boundary: each round leaves result_ consistent and the
      // finished rounds' charge logs intact, so aborting here (deadline
      // inside the semi-naive loop) replays exactly the work done.
      ctx_->CheckAbort(++iter);
      ++ctx_->fix_iterations;
      const Table& input = node.naive_fix ? result_ : delta;
      if (!node.naive_fix && delta.rows.empty()) break;
      bool delta_spilled = false;
      DeltaSource src;
      src.temp = ctx_->AllocTemp(input.rows.size(),
                                 input.schema.cols.size(),
                                 SpillOpTag::kFixDelta, &delta_spilled);
      src.rows = &input;
      if (delta_spilled) {
        src.spill = SpillRows(ctx_, input.rows);
        // Semi-naive deltas are dead after this iteration, so the spill
        // genuinely frees their row memory. Naive mode feeds the whole
        // accumulated result, which must stay resident — readers still go
        // through the spill file, but no memory is reclaimed (documented
        // in ROBUSTNESS.md).
        if (!node.naive_fix) {
          delta.rows.clear();
          delta.rows.shrink_to_fit();
        }
      }
      ctx_->deltas[node.fix_name] = src;
      std::unique_ptr<Op> arm = BuildOp(ctx_, node.children[1].get());
      Table produced = DrainOp(arm.get());
      ctx_->deltas.erase(node.fix_name);
      // The iteration's delta temp is dead: return its pages to the ledger
      // (spilled deltas were never charged).
      if (!delta_spilled) ctx_->ReleaseTemp(src.temp.pages);
      if (ctx_->collect_op_stats) arm->Harvest();
      iter_logs_.emplace_back();
      arm->Replay(&iter_logs_.back());

      Table next;
      next.schema = result_.schema;
      for (Row& r : produced.rows) {
        if (seen.insert(r).second) {
          result_.rows.push_back(r);
          next.rows.push_back(std::move(r));
        }
      }
      progress = !next.rows.empty();
      delta = std::move(next);
    }
    if (cacheable && ctx_->fix_cache != nullptr) {
      bool cache_spilled = false;
      FixCacheEntry entry;
      entry.temp = ctx_->AllocTemp(result_.rows.size(),
                                   result_.schema.cols.size(),
                                   SpillOpTag::kFixCache, &cache_spilled);
      if (cache_spilled) {
        entry.spill = SpillRows(ctx_, result_.rows);
      } else {
        entry.result = result_;
      }
      (*ctx_->fix_cache)[key] = std::move(entry);
    }
    serve_src_ = &result_;
    own_rows_ = true;
  }

  bool computed_ = false;
  Table result_;
  const Table* serve_src_ = nullptr;
  bool own_rows_ = false;
  size_t pos_ = 0;
  std::vector<ChargeLog> iter_logs_;
};

// --- Factory ---------------------------------------------------------------

std::unique_ptr<Op> BuildOp(ExecCtx* ctx, const PTNode* node) {
  switch (node->kind) {
    case PTKind::kEntity:
      return std::make_unique<EntityScanOp>(ctx, node);
    case PTKind::kDelta:
      return std::make_unique<DeltaScanOp>(ctx, node);
    case PTKind::kSel:
      if (node->sel_access != SelAccess::kSeqScan) {
        return std::make_unique<IndexSelOp>(ctx, node);
      }
      if (node->children[0]->kind == PTKind::kEntity) {
        return std::make_unique<FilterScanOp>(ctx, node);
      }
      return std::make_unique<FilterOp>(ctx, node);
    case PTKind::kProj:
      return std::make_unique<ProjOp>(ctx, node);
    case PTKind::kEJ:
      if (node->algo == JoinAlgo::kIndexJoin) {
        return std::make_unique<IndexJoinOp>(ctx, node);
      }
      return std::make_unique<NLJoinOp>(ctx, node);
    case PTKind::kIJ:
      return std::make_unique<IJOp>(ctx, node);
    case PTKind::kPIJ:
      return std::make_unique<PIJOp>(ctx, node);
    case PTKind::kUnion:
      return std::make_unique<UnionOp>(ctx, node);
    case PTKind::kFix:
      return std::make_unique<FixOp>(ctx, node);
  }
  RODIN_CHECK(false, "unknown PT node kind");
  return nullptr;
}

/// Makes the engine-local page counts inclusive: each profiled node's pages
/// gain the sum of its children's (inclusive) pages, bottom-up. Nodes never
/// evaluated (fused entity children, cache-skipped subtrees) contribute
/// their descendants' total transparently.
uint64_t SumPagesInclusive(const PTNode& node,
                           std::map<const PTNode*, OpStats>* stats) {
  uint64_t child_total = 0;
  for (const auto& c : node.children) {
    child_total += SumPagesInclusive(*c, stats);
  }
  auto it = stats->find(&node);
  if (it == stats->end()) return child_total;
  it->second.pages += child_total;
  return it->second.pages;
}

}  // namespace

struct BatchEngine::Impl {
  Config cfg;
  const PTNode* plan = nullptr;
  ExecCtx ctx;
  std::unique_ptr<Op> root;
  bool finalized = false;
  bool exhausted = false;
  uint64_t rows_emitted = 0;
  Status status;  // non-OK after a budget / fault abort
};

BatchEngine::BatchEngine(const Config& config, const PTNode& plan)
    : impl_(std::make_unique<Impl>()) {
  RODIN_CHECK(config.db != nullptr, "engine needs a database");
  impl_->cfg = config;
  impl_->plan = &plan;
  ExecCtx& ctx = impl_->ctx;
  ctx.db = config.db;
  ctx.batch_rows = std::max<size_t>(1, config.batch_rows);
  ctx.threads = std::max<size_t>(1, config.exec_threads);
  ctx.hash_equijoin = config.hash_equijoin;
  ctx.collect_op_stats = config.collect_op_stats;
  ctx.pool = config.pool;
  ctx.fix_cache = config.fix_cache;
  ctx.query = config.query;
  ctx.inject_faults =
      config.inject_faults && FaultInjector::Global().enabled();
  ctx.spill_enabled = config.spill_enabled;
  ctx.ledger_budget = config.spill_budget_pages;
  impl_->root = BuildOp(&ctx, &plan);
}

BatchEngine::~BatchEngine() { Finalize(); }

const RowSchema& BatchEngine::schema() const { return impl_->root->schema(); }

uint64_t BatchEngine::rows_emitted() const { return impl_->rows_emitted; }

uint64_t BatchEngine::vm_chunks() const { return impl_->ctx.vm_chunks; }

uint64_t BatchEngine::vm_instrs() const { return impl_->ctx.vm_instrs; }

bool BatchEngine::Next(RowBatch* out) {
  out->Clear();
  if (impl_->exhausted) return false;
  try {
    // Batch boundary: a cancel requested from another thread while the
    // caller was away is observed here, before any new work starts.
    impl_->ctx.CheckAbort(0);
    while (true) {
      if (!impl_->root->Pull(out)) {
        impl_->exhausted = true;
        out->Clear();
        return false;
      }
      if (!out->empty()) {
        impl_->rows_emitted += out->size();
        return true;
      }
    }
  } catch (internal::ExecAbort& abort) {
    // The abort already unwound any in-flight operator pass; completed
    // passes keep their charge logs, so Finalize still replays exactly the
    // work performed. A dangling delta entry from an unwound fixpoint is
    // dropped (the engine can never be pulled again).
    impl_->status = std::move(abort.status);
    impl_->ctx.deltas.clear();
    impl_->exhausted = true;
    out->Clear();
    return false;
  }
}

const Status& BatchEngine::status() const { return impl_->status; }

void BatchEngine::Finalize() {
  if (impl_->finalized) return;
  impl_->finalized = true;
  ExecCtx& ctx = impl_->ctx;
  // Canonical replay: the pool sees the exact charge sequence a whole-table
  // bottom-up evaluator would have produced, so LRU hits and misses — and
  // with them MeasuredCost() — are independent of batching and threading.
  // The per-query memory budget applies exactly here, where the pool is
  // actually touched: with a budget the effective LRU capacity is clamped,
  // so over-budget access patterns degrade to extra (exactly accounted)
  // misses instead of failing.
  const size_t budget =
      ctx.query != nullptr ? ctx.query->memory_budget_pages : 0;
  {
    // Declares the replay to the pool so a concurrent resident-set
    // snapshot/restore (Session's fault-retry path) trips the debug guard
    // instead of silently corrupting the accounting.
    BufferPool::ActiveFetchScope fetch_scope(&ctx.db->buffer_pool());
    if (budget > 0) ctx.db->buffer_pool().SetQueryBudget(budget);
    impl_->root->Replay(&ctx.db->buffer_pool());
    if (budget > 0) ctx.db->buffer_pool().ClearQueryBudget();
  }
  if (ctx.collect_op_stats) {
    impl_->root->Harvest();
    SumPagesInclusive(*impl_->plan, &ctx.local_stats);
    if (impl_->cfg.op_stats != nullptr) {
      for (const auto& [node, s] : ctx.local_stats) {
        OpStats& dst = (*impl_->cfg.op_stats)[node];
        dst.invocations += s.invocations;
        dst.rows += s.rows;
        dst.pages += s.pages;
        dst.micros += s.micros;
      }
    }
  }
  if (ctx.spill.spills > 0) {
    static obs::Counter* spills =
        obs::MetricsRegistry::Global().GetCounter("rodin.spill.spills");
    static obs::Counter* partitions =
        obs::MetricsRegistry::Global().GetCounter("rodin.spill.partitions");
    static obs::Counter* bytes =
        obs::MetricsRegistry::Global().GetCounter("rodin.spill.bytes");
    static obs::Counter* passes =
        obs::MetricsRegistry::Global().GetCounter("rodin.spill.passes");
    spills->Add(ctx.spill.spills);
    partitions->Add(ctx.spill.partitions);
    bytes->Add(ctx.spill.bytes);
    passes->Add(ctx.spill.passes);
  }
  if (impl_->cfg.spill_stats != nullptr) {
    impl_->cfg.spill_stats->Add(ctx.spill);
  }
  {
    static obs::Counter* chunks =
        obs::MetricsRegistry::Global().GetCounter("rodin.vm.chunks_compiled");
    static obs::Counter* instrs =
        obs::MetricsRegistry::Global().GetCounter("rodin.vm.chunk_instrs");
    static obs::Counter* rows =
        obs::MetricsRegistry::Global().GetCounter("rodin.vm.rows_evaluated");
    chunks->Add(ctx.vm_chunks);
    instrs->Add(ctx.vm_instrs);
    rows->Add(ctx.vm_rows);
  }
  if (impl_->cfg.counters != nullptr) {
    ExecCounters* c = impl_->cfg.counters;
    c->predicate_evals += ctx.counters.predicate_evals;
    c->method_calls += ctx.counters.method_calls;
    c->fix_iterations += ctx.fix_iterations;
    c->rows_produced += impl_->rows_emitted;
    if (impl_->cfg.method_cost_fp != nullptr) {
      *impl_->cfg.method_cost_fp += ctx.counters.method_cost_fp;
      c->method_cost = MethodCostFromFp(*impl_->cfg.method_cost_fp);
    }
  }
}

}  // namespace rodin
