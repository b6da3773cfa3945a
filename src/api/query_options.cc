#include "api/query_options.h"

namespace rodin {

Status QueryOptions::Validate() const {
  if (search_threads.has_value() && *search_threads == 0) {
    return Status::Error(
        Status::Code::kInvalidArgument,
        "search_threads must be >= 1 when set (omit it to inherit the "
        "session default)");
  }
  if (exec_threads.has_value() && *exec_threads == 0) {
    return Status::Error(
        Status::Code::kInvalidArgument,
        "exec_threads must be >= 1 when set (omit it to inherit the "
        "executor default)");
  }
  if (batch_rows.has_value() && *batch_rows == 0) {
    return Status::Error(
        Status::Code::kInvalidArgument,
        "batch_rows must be >= 1 when set (omit it to inherit the "
        "executor default)");
  }
  if (feedback.drift_threshold != 0 && feedback.drift_threshold <= 1) {
    return Status::Error(
        Status::Code::kInvalidArgument,
        "feedback.drift_threshold must be > 1 when set (a plan always "
        "\"drifts\" 1x from itself; leave it 0 to inherit the default)");
  }
  if (feedback.ewma_alpha < 0 || feedback.ewma_alpha > 1) {
    return Status::Error(
        Status::Code::kInvalidArgument,
        "feedback.ewma_alpha must be in (0, 1] when set (leave it 0 to "
        "inherit the default)");
  }
  return Status::Ok();
}

ExecOptions QueryOptions::MakeExecOptions(const QueryContext* armed) const {
  ExecOptions exec;
  if (batch_rows.has_value()) exec.batch_rows = *batch_rows;
  if (exec_threads.has_value()) exec.exec_threads = *exec_threads;
  exec.hash_equijoin = hash_equijoin;
  exec.query = armed;
  return exec;
}

}  // namespace rodin
