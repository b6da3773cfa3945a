#ifndef RODIN_COMMON_FAULTS_H_
#define RODIN_COMMON_FAULTS_H_

#include <atomic>

namespace rodin {

/// Forced deadlines: the test seam for the budget paths. Each field names a
/// point where the next budget poll reports kDeadlineExceeded as if the
/// clock had run out, so a test can trip a deadline at an exact stage or
/// semi-naive iteration instead of racing a wall clock. Both are off (-1)
/// unless a test configures them; nothing reads them from the environment.
struct FaultConfig {
  int force_deadline_stage = -1;     // 1-based optimizer stage, -1 = off
  int force_deadline_fix_iter = -1;  // 1-based fixpoint iteration, -1 = off
};

/// Process-global holder of the forced deadlines. The optimizer's stage
/// budget poll and the engine's fixpoint-iteration poll consult it on every
/// path (Session, streaming cursors, raw Executor, the server); with the
/// defaults it never fires. The values are atomics, so a test may set them
/// while server worker threads read them.
class FaultInjector {
 public:
  static FaultInjector& Global();

  /// Replaces both forced deadlines (tests only).
  void Configure(const FaultConfig& config);

  /// True if a forced deadline fires at the start of optimizer stage
  /// `stage` (1-based).
  bool ForceDeadlineAtStage(int stage) const {
    return stage_.load(std::memory_order_relaxed) == stage;
  }

  /// True if a forced deadline fires at the start of semi-naive iteration
  /// `iter` (1-based).
  bool ForceDeadlineAtFixIter(int iter) const {
    return fix_iter_.load(std::memory_order_relaxed) == iter;
  }

 private:
  FaultInjector() = default;

  std::atomic<int> stage_{-1};
  std::atomic<int> fix_iter_{-1};
};

}  // namespace rodin

#endif  // RODIN_COMMON_FAULTS_H_
