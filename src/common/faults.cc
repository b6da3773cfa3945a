#include "common/faults.h"

namespace rodin {

FaultInjector& FaultInjector::Global() {
  static FaultInjector* instance = new FaultInjector();
  return *instance;
}

void FaultInjector::Configure(const FaultConfig& config) {
  stage_.store(config.force_deadline_stage, std::memory_order_relaxed);
  fix_iter_.store(config.force_deadline_fix_iter, std::memory_order_relaxed);
}

}  // namespace rodin
