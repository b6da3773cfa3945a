#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "storage/buffer_pool.h"

namespace rodin {
namespace {

TEST(BufferPoolTest, ColdFetchesMiss) {
  BufferPool pool(4);
  EXPECT_FALSE(pool.Fetch(1));
  EXPECT_FALSE(pool.Fetch(2));
  EXPECT_EQ(pool.stats().misses, 2u);
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(pool.stats().fetches, 2u);
}

TEST(BufferPoolTest, RepeatedFetchHits) {
  BufferPool pool(4);
  pool.Fetch(1);
  EXPECT_TRUE(pool.Fetch(1));
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(BufferPoolTest, LruEvictsOldest) {
  BufferPool pool(2);
  pool.Fetch(1);
  pool.Fetch(2);
  pool.Fetch(3);  // evicts 1
  EXPECT_EQ(pool.stats().evictions, 1u);
  EXPECT_FALSE(pool.Resident(1));
  EXPECT_TRUE(pool.Resident(2));
  EXPECT_TRUE(pool.Resident(3));
  EXPECT_FALSE(pool.Fetch(1));  // miss: was evicted
}

TEST(BufferPoolTest, AccessRefreshesLruPosition) {
  BufferPool pool(2);
  pool.Fetch(1);
  pool.Fetch(2);
  pool.Fetch(1);  // 1 becomes MRU
  pool.Fetch(3);  // evicts 2, not 1
  EXPECT_TRUE(pool.Resident(1));
  EXPECT_FALSE(pool.Resident(2));
}

TEST(BufferPoolTest, ZeroCapacityAlwaysMisses) {
  BufferPool pool(0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(pool.Fetch(7));
  }
  EXPECT_EQ(pool.stats().misses, 5u);
  EXPECT_EQ(pool.resident_pages(), 0u);
}

TEST(BufferPoolTest, ResetStatsKeepsResidency) {
  BufferPool pool(4);
  pool.Fetch(1);
  pool.ResetStats();
  EXPECT_EQ(pool.stats().fetches, 0u);
  EXPECT_TRUE(pool.Fetch(1));  // still resident: hit
}

TEST(BufferPoolTest, ClearDropsResidency) {
  BufferPool pool(4);
  pool.Fetch(1);
  pool.Clear();
  EXPECT_EQ(pool.resident_pages(), 0u);
  EXPECT_FALSE(pool.Fetch(1));
}

TEST(BufferPoolTest, SequentialFloodingThrashes) {
  // Scanning 8 pages repeatedly through a 4-page LRU pool misses on every
  // fetch — the behaviour the cost model's RescanIO mirrors.
  BufferPool pool(4);
  for (int scan = 0; scan < 3; ++scan) {
    for (PageId p = 0; p < 8; ++p) pool.Fetch(p);
  }
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(pool.stats().misses, 24u);
}

TEST(BufferPoolTest, SmallWorkingSetStaysHot) {
  BufferPool pool(8);
  for (int scan = 0; scan < 3; ++scan) {
    for (PageId p = 0; p < 4; ++p) pool.Fetch(p);
  }
  EXPECT_EQ(pool.stats().misses, 4u);
  EXPECT_EQ(pool.stats().hits, 8u);
}

/// Records the raw charge sequence, bypassing ChargeLog's run-length
/// encoding, so replay order can be compared exactly.
struct RecordingCharger final : public PageCharger {
  std::vector<PageId> pages;
  void Charge(PageId page) override { pages.push_back(page); }
};

TEST(ChargeLogTest, ReplayReproducesExactSequence) {
  // Ascending runs, a restart (the nested-loop re-scan shape), a repeat,
  // and a descent — replay must reproduce all of it verbatim.
  const std::vector<PageId> charges = {5, 6, 7, 5, 6, 7, 9, 9, 3, 2};
  ChargeLog log;
  for (PageId p : charges) log.Charge(p);
  EXPECT_EQ(log.size(), charges.size());
  EXPECT_FALSE(log.empty());
  RecordingCharger sink;
  log.ReplayInto(&sink);
  EXPECT_EQ(sink.pages, charges);
}

TEST(ChargeLogTest, AppendPreservesOrderAndCount) {
  ChargeLog a;
  for (PageId p : {1, 2, 3}) a.Charge(p);
  ChargeLog b;
  for (PageId p : {4, 5, 10}) b.Charge(p);  // 4 continues a's run
  a.Append(b);
  EXPECT_EQ(a.size(), 6u);
  RecordingCharger sink;
  a.ReplayInto(&sink);
  EXPECT_EQ(sink.pages, (std::vector<PageId>{1, 2, 3, 4, 5, 10}));
}

TEST(ChargeLogTest, RepeatedPageRunsReplayExactly) {
  // The extent-scan shape: many records per page, one charge per record.
  ChargeLog log;
  std::vector<PageId> charges;
  for (PageId p = 0; p < 3; ++p) {
    for (int r = 0; r < 50; ++r) {
      log.Charge(p);
      charges.push_back(p);
    }
  }
  EXPECT_EQ(log.size(), charges.size());
  RecordingCharger sink;
  log.ReplayInto(&sink);
  EXPECT_EQ(sink.pages, charges);
}

TEST(ChargeLogTest, AppendMergesRepeatedPageRuns) {
  ChargeLog a;
  a.Charge(7);  // single charge: stride still open
  ChargeLog b;
  b.Charge(7);
  b.Charge(7);
  a.Append(b);
  EXPECT_EQ(a.size(), 3u);
  RecordingCharger sink;
  a.ReplayInto(&sink);
  EXPECT_EQ(sink.pages, (std::vector<PageId>{7, 7, 7}));
}

TEST(ChargeLogTest, RandomizedMorselMergeReplaysExactly) {
  // Differential check against a plain charge vector: random mixes of
  // ascending runs, repeated pages and lone charges, merged across
  // morsel-local logs the way the batched executor does.
  std::mt19937 rng(42);
  std::uniform_int_distribution<int> kind(0, 2);
  std::uniform_int_distribution<PageId> page(0, 30);
  std::uniform_int_distribution<int> len(1, 6);
  for (int trial = 0; trial < 20; ++trial) {
    ChargeLog merged;
    std::vector<PageId> flat;
    for (int m = 0; m < 3; ++m) {
      ChargeLog morsel;
      for (int i = 0; i < 40; ++i) {
        const PageId p = page(rng);
        const int n = len(rng);
        switch (kind(rng)) {
          case 0:  // ascending run
            for (int j = 0; j < n; ++j) {
              morsel.Charge(p + j);
              flat.push_back(p + j);
            }
            break;
          case 1:  // repeated page
            for (int j = 0; j < n; ++j) {
              morsel.Charge(p);
              flat.push_back(p);
            }
            break;
          default:  // lone charge
            morsel.Charge(p);
            flat.push_back(p);
            break;
        }
      }
      merged.Append(morsel);
    }
    ASSERT_EQ(merged.size(), flat.size());
    RecordingCharger sink;
    merged.ReplayInto(&sink);
    ASSERT_EQ(sink.pages, flat);
  }
}

TEST(ChargeLogTest, ClearEmpties) {
  ChargeLog log;
  log.Charge(1);
  log.clear();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.size(), 0u);
  RecordingCharger sink;
  log.ReplayInto(&sink);
  EXPECT_TRUE(sink.pages.empty());
}

TEST(ChargeLogTest, ChargeRunMatchesSingleCharges) {
  // A run logged whole must replay exactly like its charges one by one,
  // including when it continues the previous span.
  ChargeLog runs;
  std::vector<PageId> flat;
  auto add = [&](PageId first, uint32_t count, uint32_t step) {
    runs.ChargeRun(first, count, step);
    for (uint32_t i = 0; i < count; ++i) flat.push_back(first + i * step);
  };
  add(4, 3, 0);
  add(4, 2, 0);  // continues the repeated run
  add(5, 4, 1);
  add(9, 1, 7);  // a single charge ignores its stride
  add(10, 3, 1);
  add(2, 0, 1);  // an empty run charges nothing
  EXPECT_EQ(runs.size(), flat.size());
  RecordingCharger sink;
  runs.ReplayInto(&sink);
  EXPECT_EQ(sink.pages, flat);
}

/// Everything a pool exposes about a charge sequence's effect.
struct PoolState {
  uint64_t fetches, hits, misses, evictions;
  std::vector<PageId> resident;  // most recently used first
  friend bool operator==(const PoolState& a, const PoolState& b) {
    return a.fetches == b.fetches && a.hits == b.hits &&
           a.misses == b.misses && a.evictions == b.evictions &&
           a.resident == b.resident;
  }
};

PoolState StateOf(const BufferPool& pool) {
  const BufferPool::Stats& s = pool.stats();
  return PoolState{s.fetches, s.hits, s.misses, s.evictions,
                   pool.SnapshotResident()};
}

TEST(BufferPoolTest, ReplayedRunsMatchFetchByFetch) {
  // The engine replays its charge logs span by span; the pool must end in
  // exactly the state the same fetches one at a time leave, whatever the
  // capacity — eviction pressure or no capacity at all.
  std::mt19937 rng(11);
  for (size_t capacity : {0, 1, 3, 16}) {
    ChargeLog log;
    for (int i = 0; i < 200; ++i) {
      const PageId page = rng() % 12;
      const uint32_t count = 1 + rng() % 5;
      log.ChargeRun(page, count, rng() % 2);
    }
    RecordingCharger flat;
    log.ReplayInto(&flat);

    BufferPool by_run(capacity);
    BufferPool by_fetch(capacity);
    log.ReplayInto(&by_run);
    for (PageId p : flat.pages) by_fetch.Fetch(p);
    EXPECT_EQ(StateOf(by_run), StateOf(by_fetch)) << "capacity=" << capacity;
    EXPECT_EQ(by_run.stats().fetches, flat.pages.size());
  }
}

}  // namespace
}  // namespace rodin
