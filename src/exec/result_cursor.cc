#include "exec/result_cursor.h"

#include <algorithm>
#include <utility>

#include "exec/batch_engine.h"

namespace rodin {

struct ResultCursor::Impl {
  /// Declared first so it is destroyed last: the keepalive may own the
  /// Executor that `engine`'s destructor (~BatchEngine runs Finalize, which
  /// writes through the executor's counters) still needs alive.
  std::shared_ptr<void> owned;  // keep-alive (session query state)

  Status status;
  std::string plan_text;
  RowSchema schema;
  size_t batch_rows = 1024;

  Executor* exec = nullptr;
  std::unique_ptr<BatchEngine> engine;

  /// Legacy-engine cursors serve from a pre-materialized table (the legacy
  /// evaluator has no streaming interface; its accounting is already final
  /// when the cursor is created).
  Table materialized;
  size_t mat_pos = 0;
  bool use_materialized = false;

  /// Row-at-a-time view: a partially consumed batch.
  RowBatch rowbuf;
  size_t row_pos = 0;

  bool finished = false;
  /// True only when the stream was pulled to genuine exhaustion (the engine
  /// reported end-of-stream with an ok status, or the materialized table was
  /// fully consumed) — not when the cursor was destroyed or aborted early.
  bool exhausted = false;
  ExecCounters counters;
  double measured_cost = -1;

  std::function<void(const Status&, bool)> on_finish;  // metrics publish etc.
};

ResultCursor::ResultCursor() : impl_(std::make_unique<Impl>()) {
  impl_->finished = true;
}

ResultCursor::ResultCursor(Status status) : impl_(std::make_unique<Impl>()) {
  impl_->status = std::move(status);
  impl_->finished = true;
}

ResultCursor::~ResultCursor() {
  // Early destruction finalizes without draining: the charges of the work
  // actually performed replay, and partial counters land in the executor.
  if (impl_ != nullptr) FinalizeAccounting();
}

ResultCursor::ResultCursor(ResultCursor&&) noexcept = default;

ResultCursor& ResultCursor::operator=(ResultCursor&& other) noexcept {
  if (this != &other) {
    // Finalize the cursor being replaced, exactly as its destructor would:
    // dropping the impl without finalizing would let the engine's own
    // destructor run Finalize after the keepalive released the executor.
    if (impl_ != nullptr) FinalizeAccounting();
    impl_ = std::move(other.impl_);
  }
  return *this;
}

bool ResultCursor::ok() const { return impl_->status.ok(); }
const Status& ResultCursor::status() const { return impl_->status; }
const std::string& ResultCursor::error() const {
  return impl_->status.message;
}
const RowSchema& ResultCursor::schema() const { return impl_->schema; }
bool ResultCursor::finished() const { return impl_->finished; }
const ExecCounters& ResultCursor::counters() const { return impl_->counters; }
double ResultCursor::measured_cost() const { return impl_->measured_cost; }
const std::string& ResultCursor::plan_text() const {
  return impl_->plan_text;
}

void ResultCursor::FinalizeAccounting() {
  Impl* im = impl_.get();
  if (im->finished) return;
  im->finished = true;
  if (im->engine != nullptr) {
    im->engine->Finalize();
    if (im->exec != nullptr) {
      im->exec->EmitExecMetrics(im->engine->rows_emitted());
    }
  }
  if (im->exec != nullptr) {
    im->counters = im->exec->counters();
    im->measured_cost = im->exec->MeasuredCost();
  }
  if (im->on_finish) {
    im->on_finish(im->status, im->exhausted && im->status.ok());
    im->on_finish = nullptr;
  }
}

bool ResultCursor::Next(RowBatch* batch) {
  Impl* im = impl_.get();
  batch->Clear();
  if (!im->status.ok()) return false;
  if (im->use_materialized) {
    if (im->mat_pos >= im->materialized.rows.size()) {
      im->exhausted = true;
      FinalizeAccounting();
      return false;
    }
    const size_t take = std::min(im->batch_rows,
                                 im->materialized.rows.size() - im->mat_pos);
    batch->rows.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch->rows.push_back(std::move(im->materialized.rows[im->mat_pos + i]));
    }
    im->mat_pos += take;
    return true;
  }
  if (im->engine == nullptr || im->finished) return false;
  if (!im->engine->Next(batch)) {
    // Exhaustion and budget aborts both end the stream; the abort reason
    // (kCancelled / kDeadlineExceeded / ...) surfaces through status().
    // Accounting still finalizes either way — the work actually performed
    // replays exactly.
    if (!im->engine->status().ok()) {
      im->status = im->engine->status();
    } else {
      im->exhausted = true;
    }
    FinalizeAccounting();
    return false;
  }
  return true;
}

bool ResultCursor::Next(Row* row) {
  Impl* im = impl_.get();
  while (im->row_pos >= im->rowbuf.size()) {
    im->rowbuf.Clear();
    im->row_pos = 0;
    if (!Next(&im->rowbuf)) return false;
  }
  *row = std::move(im->rowbuf.rows[im->row_pos++]);
  return true;
}

Table ResultCursor::ToTable() {
  Impl* im = impl_.get();
  Table out;
  out.schema = im->schema;
  // Rows already pulled into the row-at-a-time buffer come first.
  for (size_t i = im->row_pos; i < im->rowbuf.size(); ++i) {
    out.rows.push_back(std::move(im->rowbuf.rows[i]));
  }
  im->rowbuf.Clear();
  im->row_pos = 0;
  RowBatch batch;
  while (Next(&batch)) {
    for (Row& r : batch.rows) out.rows.push_back(std::move(r));
  }
  return out;
}

void ResultCursor::Finish() {
  Impl* im = impl_.get();
  if (im->finished) return;
  // Drain so the run's accounting covers the whole query.
  RowBatch batch;
  while (Next(&batch)) {
  }
}

void ResultCursor::set_plan_text(std::string text) {
  impl_->plan_text = std::move(text);
}

void ResultCursor::set_keepalive(std::shared_ptr<void> owned) {
  impl_->owned = std::move(owned);
}

void ResultCursor::set_on_finish(
    std::function<void(const Status&, bool)> hook) {
  impl_->on_finish = std::move(hook);
}

// Defined here (not in executor.cc) because it needs ResultCursor::Impl.
ResultCursor Executor::ExecuteStream(const PTNode& plan, ExecOptions options) {
  ResultCursor cursor;
  ResultCursor::Impl* im = cursor.impl_.get();
  im->exec = this;
  im->batch_rows = std::max<size_t>(1, options.batch_rows);
  im->finished = false;
  if (options.use_legacy) {
    im->status = ExecuteInto(plan, options, &im->materialized);
    im->use_materialized = true;
    im->schema = im->materialized.schema;
    return cursor;
  }
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
  cfg.query = options.query;
  cfg.inject_faults = options.inject_faults;
  cfg.spill_enabled = EffectiveSpillEnabled(options.query);
  cfg.spill_budget_pages = EffectiveSpillBudgetPages(options.query);
  cfg.spill_stats = &spill_stats_;
  im->engine = std::make_unique<BatchEngine>(cfg, plan);
  im->schema = im->engine->schema();
  return cursor;
}

}  // namespace rodin
