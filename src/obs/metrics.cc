#include "obs/metrics.h"

#include "common/string_util.h"

namespace rodin::obs {

size_t ThreadShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return index;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>(name);
  return slot.get();
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  // counters_ is a std::map, so the samples come out sorted by name.
  std::vector<Sample> out;
  for (const auto& [name, c] : counters_) {
    out.push_back(Sample{name, c->value()});
  }
  return out;
}

std::string MetricsRegistry::ToString() const {
  std::string out;
  for (const Sample& s : Samples()) {
    out += StrFormat("%-44s %-9s %llu\n", s.name.c_str(), "counter",
                     static_cast<unsigned long long>(s.value));
  }
  return out;
}

}  // namespace rodin::obs
