#ifndef RODIN_COMMON_QUERY_CONTEXT_H_
#define RODIN_COMMON_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/status.h"

namespace rodin {

/// Cooperative cancellation handle. Copies share one flag, so the caller
/// keeps a copy and the running query polls another — including from
/// different threads (the flag is a relaxed atomic; there is no data to
/// publish, only the request itself).
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Requests cancellation. Safe from any thread, any number of times.
  void RequestCancel() const { flag_->store(true, std::memory_order_relaxed); }

  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// The lifecycle budget of one query: deadline, cancel token and memory
/// budget. This is the *single definition* of these knobs — QueryOptions
/// carries one by value, and ExecOptions / OptimizerOptions / the executor
/// engines reference it by pointer (never copy the fields), so there is
/// exactly one source of truth per run.
///
/// The deadline is armed once per run: `Session` copies the caller's context
/// (the cancel token still shares its flag), calls ArmDeadline() at run
/// start, and threads `const QueryContext*` through every stage. Check() is
/// then a relaxed atomic load plus, when a deadline is set, one clock read —
/// cheap enough for per-morsel and per-move polling, and thread-safe, so
/// parallel search restarts and the streaming cursor's coordinator can all
/// poll the same context.
struct QueryContext {
  /// Wall-clock budget for the whole run (optimize + execute), in
  /// milliseconds. 0 = no deadline.
  uint64_t deadline_ms = 0;

  /// Cancellation handle; keep a copy and RequestCancel() from any thread.
  CancelToken cancel;

  /// Per-query memory budget: a bound on the query's *cumulative live*
  /// temp pages (the temp-page ledger). An operator working set that would
  /// exceed the remainder spills to disk; spilling never changes rows, row
  /// order, ExecCounters or MeasuredCost — only where row bytes live. The
  /// only refusal is a single row wider than the whole budget (a typed
  /// kResourceExhausted; no partitioning can split one row). The buffer
  /// pool only counts the paper's page I/O and holds no page contents, so
  /// the budget never touches it. 0 = unlimited.
  size_t memory_budget_pages = 0;

  /// Starts the deadline clock. Called once per run by Session;
  /// a context that was never armed has no deadline even if deadline_ms is
  /// set (so an unarmed default context checks as kOk everywhere).
  void ArmDeadline() {
    if (deadline_ms == 0) return;
    armed_ = true;
    deadline_at_ = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(deadline_ms);
  }

  bool has_deadline() const { return armed_; }

  /// The poll: kCancelled beats kDeadlineExceeded beats kOk.
  Status Check() const {
    if (cancel.cancelled()) {
      return Status::Error(Status::Code::kCancelled, "query cancelled");
    }
    if (armed_ && std::chrono::steady_clock::now() >= deadline_at_) {
      return Status::Error(Status::Code::kDeadlineExceeded,
                           "deadline exceeded");
    }
    return Status::Ok();
  }

  /// True when the poll would return non-OK; avoids constructing a Status
  /// on hot paths that only need the boolean.
  bool Expired() const {
    return cancel.cancelled() ||
           (armed_ && std::chrono::steady_clock::now() >= deadline_at_);
  }

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point deadline_at_{};
};

}  // namespace rodin

#endif  // RODIN_COMMON_QUERY_CONTEXT_H_
