#ifndef RODIN_EXEC_EXEC_ABORT_H_
#define RODIN_EXEC_EXEC_ABORT_H_

#include <utility>

#include "common/status.h"

namespace rodin {
namespace internal {

/// Aborts an in-flight evaluation (deadline, cancel or budget) from deep
/// inside the operator tree. Thrown only on the coordinator thread — worker
/// morsels never throw across the pool — and caught at the engine boundary
/// (BatchEngine::Next), which converts it back into a Status. Not part of
/// the public API.
struct ExecAbort {
  Status status;
  explicit ExecAbort(Status s) : status(std::move(s)) {}
};

}  // namespace internal
}  // namespace rodin

#endif  // RODIN_EXEC_EXEC_ABORT_H_
