#include "common/faults.h"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <sstream>

#include "common/check.h"

namespace rodin {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double ToUnit(uint64_t bits) {
  // 53 high bits -> [0, 1).
  return static_cast<double>(bits >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace

FaultInjector::FaultInjector() { ConfigureFromEnv(); }

FaultInjector& FaultInjector::Global() {
  static FaultInjector* instance = new FaultInjector();
  return *instance;
}

Status FaultInjector::ParseEnvValue(const std::string& value,
                                    FaultConfig* out) {
  FaultConfig config;
  if (!value.empty() && value != "0") config.enabled = true;
  if (config.enabled && value != "1") {
    std::stringstream ss(value);
    std::string item;
    while (std::getline(ss, item, ',')) {
      const size_t eq = item.find('=');
      const std::string key = item.substr(0, eq);
      const std::string val =
          eq == std::string::npos ? "" : item.substr(eq + 1);
      const bool negative = val.find('-') != std::string::npos;
      const char* begin = val.c_str();
      char* end = nullptr;
      errno = 0;
      if (key == "page_fetch") {
        config.page_fetch_fail = std::strtod(begin, &end);
      } else if (key == "alloc") {
        config.alloc_fail = std::strtod(begin, &end);
      } else if (key == "seed" && !negative) {
        config.seed = std::strtoull(begin, &end, 10);
      } else if (key == "max" && !negative) {
        config.max_faults = std::strtoull(begin, &end, 10);
      } else if (key == "stage" || key == "fix_iter") {
        const long n = std::strtol(begin, &end, 10);
        if (n < INT_MIN || n > INT_MAX) errno = ERANGE;
        int& slot = key == "stage" ? config.force_deadline_stage
                                   : config.force_deadline_fix_iter;
        slot = static_cast<int>(n);
      }
      if (end == nullptr || end == begin || *end != '\0' || errno != 0) {
        return Status::Error(Status::Code::kInvalidArgument,
                             "RODIN_FAULTS: bad item '" + item + "'");
      }
    }
  }
  *out = config;
  return Status::Ok();
}

void FaultInjector::ConfigureFromEnv() {
  const char* env = std::getenv("RODIN_FAULTS");
  FaultConfig config;
  const Status status = ParseEnvValue(env != nullptr ? env : "", &config);
  RODIN_CHECK(status.ok(), status.message.c_str());
  Configure(config);
}

void FaultInjector::Configure(const FaultConfig& config) {
  config_ = config;
  rng_state_.store(config.seed, std::memory_order_relaxed);
  faults_.store(0, std::memory_order_relaxed);
}

bool FaultInjector::Draw(double probability) {
  if (!config_.enabled || probability <= 0) return false;
  if (config_.max_faults != 0 &&
      faults_.load(std::memory_order_relaxed) >= config_.max_faults) {
    return false;
  }
  uint64_t state = rng_state_.load(std::memory_order_relaxed);
  uint64_t next;
  uint64_t bits;
  do {
    next = state;
    bits = SplitMix64(&next);
  } while (!rng_state_.compare_exchange_weak(state, next,
                                             std::memory_order_relaxed));
  if (ToUnit(bits) >= probability) return false;
  faults_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool FaultInjector::InjectPageFetchFault() {
  return Draw(config_.page_fetch_fail);
}

bool FaultInjector::InjectAllocFault() { return Draw(config_.alloc_fail); }

bool FaultInjector::ForceDeadlineAtStage(int stage) const {
  return config_.enabled && config_.force_deadline_stage == stage;
}

bool FaultInjector::ForceDeadlineAtFixIter(int iter) const {
  return config_.enabled && config_.force_deadline_fix_iter == iter;
}

}  // namespace rodin
