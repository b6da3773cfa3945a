#include "exec/result_cursor.h"

#include <string>
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

  Executor* exec = nullptr;
  std::unique_ptr<BatchEngine> engine;

  /// Row-at-a-time view: a partially consumed batch.
  RowBatch rowbuf;
  size_t row_pos = 0;

  bool finished = false;
  /// True only when the stream was pulled to genuine exhaustion (the engine
  /// reported end-of-stream with an ok status) — not when the cursor was
  /// destroyed or aborted early.
  bool exhausted = false;
  ExecCounters counters;
  double measured_cost = -1;

  /// The executor's tracer when the stream opened, with the "execute" span
  /// begun there and the spill activity it started from.
  obs::Tracer* tracer = nullptr;
  uint64_t execute_span = 0;
  SpillStats spill_before;

  std::function<void(const Status&, bool)> on_finish;  // metrics publish etc.
  obs::Tracer* trace_source = nullptr;  // finished into `trace` after on_finish
  std::shared_ptr<const obs::Trace> trace;
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
std::shared_ptr<const obs::Trace> ResultCursor::trace() const {
  return impl_->trace;
}

void ResultCursor::FinalizeAccounting() {
  Impl* im = impl_.get();
  if (im->finished) return;
  im->finished = true;
  if (im->engine != nullptr) {  // set with `exec` by ExecuteStream
    im->engine->Finalize();
    im->exec->EmitExecMetrics(im->engine->rows_emitted());
    im->counters = im->exec->counters();
    im->measured_cost = im->exec->MeasuredCost();
  }
  if (im->tracer != nullptr) {
    obs::Tracer& tracer = *im->tracer;
    const uint64_t span = im->execute_span;
    tracer.AddArg(span, "vm_chunks", std::to_string(im->engine->vm_chunks()));
    tracer.AddArg(span, "vm_instrs", std::to_string(im->engine->vm_instrs()));
    tracer.AddArg(span, "pairs_probed",
                  std::to_string(im->engine->pairs_probed()));
    tracer.AddArg(span, "rows", std::to_string(im->engine->rows_emitted()));
    tracer.AddArg(span, "measured_cost", im->measured_cost);
    if (!im->status.ok()) tracer.AddArg(span, "status", im->status.code_name());
    const SpillStats& now = im->exec->spill_stats();
    const SpillStats& was = im->spill_before;
    if (now.spills > was.spills) {
      tracer.AddArg(span, "spill_partitions",
                    std::to_string(now.partitions - was.partitions));
      tracer.AddArg(span, "spill_bytes", std::to_string(now.bytes - was.bytes));
      tracer.AddArg(span, "spill_passes",
                    std::to_string(now.passes - was.passes));
    }
    tracer.End(span);
  }
  if (im->on_finish) {
    im->on_finish(im->status, im->exhausted && im->status.ok());
    im->on_finish = nullptr;
  }
  if (im->trace_source != nullptr) {
    im->trace = im->trace_source->Finish();
    im->trace_source = nullptr;
  }
}

bool ResultCursor::Next(RowBatch* batch) {
  Impl* im = impl_.get();
  batch->Clear();
  if (!im->status.ok()) return false;
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

void ResultCursor::set_trace_source(obs::Tracer* tracer) {
  if (impl_->finished) {
    impl_->trace = tracer->Finish();
  } else {
    impl_->trace_source = tracer;
  }
}

// Defined here (not in executor.cc) because it needs ResultCursor::Impl.
ResultCursor Executor::ExecuteStream(const PTNode& plan, ExecOptions options) {
  ResultCursor cursor;
  ResultCursor::Impl* im = cursor.impl_.get();
  im->exec = this;
  im->finished = false;
  if (tracer_ != nullptr) {
    im->tracer = tracer_;
    im->execute_span = tracer_->Begin("execute", "exec");
    im->spill_before = spill_stats_;
  }
  im->engine = MakeEngine(plan, options);
  im->schema = im->engine->schema();
  return cursor;
}

}  // namespace rodin
