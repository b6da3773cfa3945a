#include "storage/buffer_pool.h"

#include <iterator>

#include "common/check.h"
#include "obs/metrics.h"

namespace rodin {

bool BufferPool::Fetch(PageId page) {
  SpinGuard guard(lock_);
  return FetchLocked(page);
}

void BufferPool::ChargeRun(PageId first, uint32_t count, uint32_t step) {
  SpinGuard guard(lock_);
  for (uint32_t i = 0; i < count; ++i) FetchLocked(first + uint64_t{i} * step);
}

bool BufferPool::FetchLocked(PageId page) {
  ++stats_.fetches;
  if (capacity_ == 0) {
    ++stats_.misses;
    return false;
  }
  if (!lru_.empty() && lru_.front() == page) {
    ++stats_.hits;  // already most recently used
    return true;
  }
  auto it = index_.find(page);
  if (it != index_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // move to front
    return true;
  }
  ++stats_.misses;
  if (lru_.size() >= capacity_) EvictDownToLocked(capacity_ - 1);
  lru_.push_front(page);
  index_[page] = lru_.begin();
  return false;
}

void BufferPool::EvictDownToLocked(size_t limit) {
  while (lru_.size() > limit) {
    index_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::vector<PageId> BufferPool::SnapshotResident() const {
#ifndef NDEBUG
  RODIN_CHECK(active_fetchers() == 0,
              "BufferPool::SnapshotResident while a fetch section is active "
              "(live streaming cursor?)");
#endif
  SpinGuard guard(lock_);
  return std::vector<PageId>(lru_.begin(), lru_.end());
}

void BufferPool::RestoreResident(const std::vector<PageId>& mru_first) {
#ifndef NDEBUG
  RODIN_CHECK(active_fetchers() == 0,
              "BufferPool::RestoreResident while a fetch section is active "
              "(live streaming cursor?)");
#endif
  SpinGuard guard(lock_);
  lru_.clear();
  index_.clear();
  for (PageId p : mru_first) {
    lru_.push_back(p);
    index_[p] = std::prev(lru_.end());
  }
}

void BufferPool::ResetStats() {
  PublishMetrics();
  SpinGuard guard(lock_);
  stats_ = Stats{};
  published_ = Stats{};
}

void BufferPool::Clear() {
  PublishMetrics();
  SpinGuard guard(lock_);
  lru_.clear();
  index_.clear();
  stats_ = Stats{};
  published_ = Stats{};
}

void BufferPool::PublishMetrics() {
  static obs::Counter* fetches =
      obs::MetricsRegistry::Global().GetCounter("rodin.buffer.fetches");
  static obs::Counter* misses =
      obs::MetricsRegistry::Global().GetCounter("rodin.buffer.misses");
  static obs::Counter* hits =
      obs::MetricsRegistry::Global().GetCounter("rodin.buffer.hits");
  static obs::Counter* evictions =
      obs::MetricsRegistry::Global().GetCounter("rodin.buffer.evictions");
  Stats delta;
  {
    SpinGuard guard(lock_);
    delta.fetches = stats_.fetches - published_.fetches;
    delta.misses = stats_.misses - published_.misses;
    delta.hits = stats_.hits - published_.hits;
    delta.evictions = stats_.evictions - published_.evictions;
    published_ = stats_;
  }
  fetches->Add(delta.fetches);
  misses->Add(delta.misses);
  hits->Add(delta.hits);
  evictions->Add(delta.evictions);
}

}  // namespace rodin
