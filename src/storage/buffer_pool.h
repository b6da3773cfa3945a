#ifndef RODIN_STORAGE_BUFFER_POOL_H_
#define RODIN_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

namespace rodin {

/// Global page identifier. Extents, index nodes and temporary files all draw
/// their pages from one id space (allocated by the Database).
using PageId = uint64_t;

constexpr uint64_t kPageSizeBytes = 4096;

/// Anything that can absorb a page access. The buffer pool is the terminal
/// charger (a charge is an LRU Fetch); a ChargeLog records charges for later
/// replay. The batched executor runs every operator pass against a log and
/// replays all logs into the pool in the canonical (single-threaded,
/// materialized bottom-up) order, which is what makes hit/miss accounting
/// independent of batch size and worker count.
class PageCharger {
 public:
  virtual ~PageCharger() = default;
  virtual void Charge(PageId page) = 0;
  /// Charges first, first+step, ..., first+(count-1)*step — exactly
  /// `count` Charge calls in that order. Sinks override it to absorb a whole
  /// run at once (ChargeLog keeps it as one span, BufferPool takes its lock
  /// once).
  virtual void ChargeRun(PageId first, uint32_t count, uint32_t step) {
    for (uint32_t i = 0; i < count; ++i) Charge(first + uint64_t{i} * step);
  }
};

/// An order-preserving record of page charges, run-length-encoded. The two
/// charge shapes that dominate by volume both collapse to one span each: a
/// run of consecutively ascending page ids (temp-file scans, a nested-loop
/// join's per-outer-row inner re-scans — formerly O(outer rows x inner
/// pages) of buffered charges) and a run of one repeated page id (an extent
/// scan charges each record's page, and many records share a page). Replay
/// reproduces the exact original charge sequence. Not thread-safe: each
/// worker morsel owns its own log; merge order is the caller's
/// responsibility.
class ChargeLog final : public PageCharger {
 public:
  void Charge(PageId page) override {
    ++total_;
    if (spans_.empty() || !Extend(&spans_.back(), page)) {
      spans_.push_back(Span{page, 1, 1});
    }
  }

  void ChargeRun(PageId first, uint32_t count, uint32_t step) override {
    if (count == 0) return;
    AppendSpan(Span{first, count, count == 1 ? 1 : step});
    total_ += count;
  }

  size_t size() const { return total_; }
  bool empty() const { return total_ == 0; }
  void clear() {
    spans_.clear();
    total_ = 0;
  }

  /// Appends another log's charges after this log's (order-preserving merge).
  void Append(const ChargeLog& other) {
    for (const Span& s : other.spans_) AppendSpan(s);
    total_ += other.total_;
  }

  /// Replays every recorded charge, in order, into `sink`, one run per span.
  void ReplayInto(PageCharger* sink) const {
    for (const Span& s : spans_) sink->ChargeRun(s.first, s.count, s.step);
  }

  struct Span {
    PageId first;
    uint32_t count;  // charges first, first+step, ..., first+(count-1)*step
    uint32_t step;   // 0 = repeated page, 1 = ascending run
  };

  /// The recorded runs, in order (a span replays as one ChargeRun).
  const std::vector<Span>& spans() const { return spans_; }

 private:

  static constexpr uint32_t kMaxCount = ~uint32_t{0};

  static PageId NextOf(const Span& s) {
    return s.first + uint64_t{s.count} * s.step;
  }

  /// Appends one span, continuing the last span when the run carries on.
  void AppendSpan(const Span& s) {
    if (spans_.empty()) {
      spans_.push_back(s);
      return;
    }
    Span& last = spans_.back();
    if (s.count == 1) {
      if (!Extend(&last, s.first)) spans_.push_back(s);
      return;
    }
    // A longer run continues the last span when it starts at the expected
    // page with the same stride (a single-charge span adopts the stride).
    const bool stride_ok = last.count == 1 || last.step == s.step;
    const PageId expect = last.count == 1 ? last.first + s.step : NextOf(last);
    if (stride_ok && s.first == expect && last.count <= kMaxCount - s.count) {
      last.step = s.step;
      last.count += s.count;
    } else {
      spans_.push_back(s);
    }
  }

  /// Extends `last` by one charge of `page` if the run continues; a span of
  /// one charge has no stride yet and can start either run shape.
  static bool Extend(Span* last, PageId page) {
    if (last->count == kMaxCount) return false;
    if (last->count == 1) {
      if (page != last->first && page != last->first + 1) return false;
      last->step = page == last->first ? 0 : 1;
      last->count = 2;
      return true;
    }
    if (page != NextOf(*last)) return false;
    ++last->count;
    return true;
  }

  std::vector<Span> spans_;
  size_t total_ = 0;
};

/// LRU buffer pool simulator. No page contents live here — extents keep the
/// data — but every *access* to a page goes through Fetch(), which tracks
/// hits (page already resident, paper §3.2 footnote: "some of the needed
/// data are already in main memory") and misses (charged as disk reads).
///
/// Fetch and the stat mutators are guarded by a spinlock so concurrent
/// sessions (and the executor's charge replay) can share one pool. Workers
/// in the batched executor never touch the pool on their hot path — they
/// charge per-morsel ChargeLogs — so the lock is effectively uncontended.
class BufferPool final : public PageCharger {
 public:
  struct Stats {
    uint64_t fetches = 0;   // logical page accesses
    uint64_t misses = 0;    // disk reads (page not resident)
    uint64_t hits = 0;      // page was resident
    uint64_t evictions = 0;
  };

  /// `capacity_pages` == 0 means "no caching": every fetch is a miss.
  explicit BufferPool(size_t capacity_pages) : capacity_(capacity_pages) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Accesses `page`; returns true on a hit. Misses evict LRU when full.
  bool Fetch(PageId page);

  /// PageCharger: a charge is a fetch.
  void Charge(PageId page) override { Fetch(page); }
  /// A run of fetches under one lock acquisition; the same hits, misses,
  /// evictions and final LRU order as `count` Fetch calls.
  void ChargeRun(PageId first, uint32_t count, uint32_t step) override;

  /// True if the page is currently resident (no access recorded).
  bool Resident(PageId page) const { return index_.count(page) > 0; }

  size_t capacity() const { return capacity_; }
  size_t resident_pages() const { return lru_.size(); }
  /// A consistent snapshot, safe to take while other threads fetch.
  Stats stats() const {
    SpinGuard guard(lock_);
    return stats_;
  }

  /// Zeroes the counters, keeping resident pages (for warm measurements).
  void ResetStats();

  /// Empties the pool and zeroes the counters (cold-start measurements).
  void Clear();

  /// The resident set, most recently used first. TxnManager's commit
  /// snapshots before applying a batch and restores afterwards, so a
  /// commit's validation and view-maintenance reads leave warm-run hit/miss
  /// patterns untouched.
  ///
  /// Must not run while any ActiveFetchScope is open: a restore that
  /// interleaves with another thread's fetches (e.g. a streaming cursor's
  /// deferred charge replay) silently corrupts the accounting even though
  /// the spinlock keeps each individual operation safe. Debug builds abort
  /// via RODIN_CHECK; TxnManager enforces the rule at the API level, since
  /// a commit drains readers and refuses while streaming cursors are live.
  std::vector<PageId> SnapshotResident() const;

  /// Replaces the resident set (counters untouched). `mru_first` must be
  /// ordered as SnapshotResident returned it. Same ActiveFetchScope
  /// exclusion as SnapshotResident.
  void RestoreResident(const std::vector<PageId>& mru_first);

  /// Marks a section that fetches/charges this pool (executor evaluation,
  /// a streaming cursor's finalize replay). While at least one scope is
  /// open, SnapshotResident/RestoreResident abort in debug builds.
  class ActiveFetchScope {
   public:
    explicit ActiveFetchScope(BufferPool* pool) : pool_(pool) {
      pool_->active_fetchers_.fetch_add(1, std::memory_order_relaxed);
    }
    ~ActiveFetchScope() {
      pool_->active_fetchers_.fetch_sub(1, std::memory_order_relaxed);
    }
    ActiveFetchScope(const ActiveFetchScope&) = delete;
    ActiveFetchScope& operator=(const ActiveFetchScope&) = delete;

   private:
    BufferPool* pool_;
  };

  /// Open ActiveFetchScope count (diagnostics / tests).
  uint32_t active_fetchers() const {
    return active_fetchers_.load(std::memory_order_relaxed);
  }

  /// Folds everything counted since the last publish into the process-wide
  /// metrics (rodin.buffer.*). Deliberately not per-Fetch: Fetch is the
  /// hottest loop in the system and carries only one uncontended spinlock
  /// acquisition. Reset/Clear publish implicitly so no counts are lost
  /// between measurements.
  void PublishMetrics();

 private:
  /// Tiny scoped spinlock over `lock_`. The critical sections are a few
  /// dozen instructions; a mutex would dominate them.
  class SpinGuard {
   public:
    explicit SpinGuard(std::atomic_flag& flag) : flag_(flag) {
      while (flag_.test_and_set(std::memory_order_acquire)) {
      }
    }
    ~SpinGuard() { flag_.clear(std::memory_order_release); }

   private:
    std::atomic_flag& flag_;
  };

  /// Evicts LRU pages until the resident set fits `limit`. Caller holds
  /// the lock.
  void EvictDownToLocked(size_t limit);

  /// Fetch without taking the lock. Caller holds it.
  bool FetchLocked(PageId page);

  size_t capacity_;
  std::atomic<uint32_t> active_fetchers_{0};
  Stats stats_;
  Stats published_;  // high-water mark of what PublishMetrics() exported
  std::list<PageId> lru_;  // front = most recently used
  std::unordered_map<PageId, std::list<PageId>::iterator> index_;
  mutable std::atomic_flag lock_ = ATOMIC_FLAG_INIT;
};

}  // namespace rodin

#endif  // RODIN_STORAGE_BUFFER_POOL_H_
