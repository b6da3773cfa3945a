#ifndef RODIN_OBS_METRICS_H_
#define RODIN_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/config.h"

namespace rodin::obs {

/// Shards per counter. Increments land on a per-thread shard (cache-line
/// padded), so the parallel transformPT workers record move/accept/reject
/// counts without contending on one atomic; value() folds the shards.
constexpr size_t kMetricShards = 16;

/// Stable per-thread shard index, assigned round-robin on first use.
size_t ThreadShardIndex();

/// Monotone counter. Add() is wait-free and contention-free across threads;
/// value() is a linear fold over the shards (read path, not hot).
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  void Add(uint64_t delta) {
    if constexpr (!kObsEnabled) return;
    shards_[ThreadShardIndex()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  const std::string& name() const { return name_; }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v{0};
  };
  std::string name_;
  std::array<Shard, kMetricShards> shards_;
};

/// Process-wide registry of named metrics. Get* registers on first use and
/// returns a stable pointer — callers cache it (typically in a function-local
/// static) and pay only the shard increment afterwards.
///
/// Naming convention (see docs/OBSERVABILITY.md):
///   rodin.<subsystem>.<metric>   e.g. rodin.search.moves_tried
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);

  struct Sample {
    std::string name;
    uint64_t value = 0;
  };
  /// Point-in-time values of every registered counter, sorted by name.
  std::vector<Sample> Samples() const;

  /// Human-readable dump (one metric per line, sorted by name).
  std::string ToString() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;  // guards registration, not the hot increments
  std::map<std::string, std::unique_ptr<Counter>> counters_;
};

}  // namespace rodin::obs

#endif  // RODIN_OBS_METRICS_H_
