#ifndef RODIN_EXEC_RESULT_CURSOR_H_
#define RODIN_EXEC_RESULT_CURSOR_H_

#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "exec/executor.h"
#include "exec/row_batch.h"
#include "obs/trace.h"

namespace rodin {

/// A streaming handle over an executing query. Rows are produced batch by
/// batch (ExecOptions::batch_rows at a time) as the caller pulls; barriers
/// inside the plan (fixpoint iterations, nested-loop inners, dedup) still
/// materialize internally, but everything downstream of them streams.
///
///   ResultCursor cur = session.Query(text, {.exec_threads = 4});
///   RowBatch batch;
///   while (cur.Next(&batch)) Consume(batch);
///   // or: Row row; while (cur.Next(&row)) ...
///   // or: Table all = cur.ToTable();
///
/// When the cursor is exhausted (or Finish() / ToTable() is called) the
/// deferred page charges replay into the buffer pool and the executor's
/// counters are final; counters() and measured_cost() then hold the
/// complete run's figures — bit-identical for any batch size and thread
/// count. Destroying a cursor early finalizes the accounting of the work
/// done so far without draining the remaining rows.
///
/// An executor with a tracer records one "execute" span per cursor: it
/// opens with the stream and closes, with the run's figures as arguments,
/// when the cursor finishes. The executor and its tracer must outlive the
/// cursor; a Session::Query cursor keeps its own executor and tracer alive.
/// Cursors are move-only.
class ResultCursor {
 public:
  ResultCursor();
  explicit ResultCursor(Status status);
  ~ResultCursor();

  ResultCursor(ResultCursor&&) noexcept;
  ResultCursor& operator=(ResultCursor&&) noexcept;
  ResultCursor(const ResultCursor&) = delete;
  ResultCursor& operator=(const ResultCursor&) = delete;

  bool ok() const;
  const Status& status() const;
  const std::string& error() const;

  /// Output schema of the query (valid when ok()).
  const RowSchema& schema() const;

  /// Pulls the next batch. Returns false when exhausted — accounting
  /// finalizes automatically at that point.
  bool Next(RowBatch* batch);

  /// Row-at-a-time convenience over the same stream.
  bool Next(Row* row);

  /// Drains every remaining row into a table and finishes the cursor.
  Table ToTable();

  /// Drains any remaining rows (so the run's accounting is complete) and
  /// finalizes: charges replay into the buffer pool, counters land in the
  /// executor. Idempotent; implied by exhaustion and ToTable().
  void Finish();

  bool finished() const;

  /// Snapshot of the executor's counters at finish time (zeroes before).
  const ExecCounters& counters() const;

  /// Executor::MeasuredCost() at finish time (-1 before finish / on error).
  double measured_cost() const;

  /// PrintPT of the executed plan (set by Session::Query; empty otherwise).
  const std::string& plan_text() const;

  /// The query's span trace (optimizer stages, execute, feedback), complete
  /// once the cursor has finished. Null unless the cursor came from
  /// Session::Query with QueryOptions::collect_trace, and before finish.
  std::shared_ptr<const obs::Trace> trace() const;

 private:
  friend class Executor;
  friend class Session;

  struct Impl;

  void set_plan_text(std::string text);
  void set_keepalive(std::shared_ptr<void> owned);
  /// Invoked exactly once when the cursor finalizes (drained, failed or
  /// destroyed), after every counter and page charge is final. `status` is
  /// the cursor's terminal status; `drained` is true only when the stream
  /// was consumed to genuine exhaustion — an abandoned (destroyed-early) or
  /// aborted cursor reports false, which is how Session's feedback harvest
  /// knows a cancelled cursor must contribute nothing.
  void set_on_finish(std::function<void(const Status& status, bool drained)> hook);
  /// Finishes `tracer` into trace() after the finish hook has run, or at
  /// once if the cursor is already finished. The tracer must live until
  /// then (Session keeps it in the keepalive state).
  void set_trace_source(obs::Tracer* tracer);

  /// Finalizes accounting for whatever has executed so far (no draining).
  void FinalizeAccounting();

  std::unique_ptr<Impl> impl_;
};

}  // namespace rodin

#endif  // RODIN_EXEC_RESULT_CURSOR_H_
