#ifndef RODIN_TXN_TXN_MANAGER_H_
#define RODIN_TXN_TXN_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/value.h"
#include "txn/materialized_fix.h"
#include "txn/mutation.h"

namespace rodin {

class Database;
class Stats;

/// The write-path coordinator for one Database: a single-writer,
/// snapshot-consistent-reader transaction layer.
///
///   * One transaction may be open at a time (Begin returns kConflict —
///     retryable — while another holds the slot). Staged batches are
///     invisible until Commit.
///   * Readers take a ReadGuard around each query run; Commit drains them
///     (condvar gate) before touching any shared structure, so a running
///     query always sees either the full pre- or full post-commit state.
///   * Live streaming cursors cannot be drained (they hold raw extent/slot
///     coordinates across user-paced pulls), so Commit *refuses* with
///     kConflict while any exist — the pinned contract of
///     docs/ROBUSTNESS.md. The transaction stays open for a retry.
///   * Commit wraps the structural change in BufferPool
///     SnapshotResident/RestoreResident, so the resident set (and hence
///     any query's measured page behaviour) is bit-identical before and
///     after a commit — mutation never silently warms or cools the cache.
///   * Commit propagates the batch's edge deltas through every registered
///     MaterializedFix (incremental counting / DRed, or full recompute
///     under the kRecompute policy) and finally bumps the engine-wide
///     stats version: sessions lazily re-derive statistics and the plan
///     cache drops entries recorded under the old version.
///
/// Instances are process-wide singletons per Database (TxnManager::For);
/// the Database destructor unregisters itself.
class TxnManager {
 public:
  /// The manager for `db`, created on first use. Thread-safe.
  static TxnManager* For(Database* db);
  /// Drops the manager of a dying database (called by ~Database).
  static void Forget(Database* db);

  // --- Reader side ---------------------------------------------------------

  /// RAII read gate: blocks while a commit is pending or active, counts the
  /// reader in otherwise. Re-entrant within a thread (nested session entry
  /// points share one slot, so a waiting writer cannot deadlock them).
  class ReadGuard {
   public:
    explicit ReadGuard(TxnManager* tm) : tm_(tm) { tm_->BeginRead(); }
    ~ReadGuard() { tm_->EndRead(); }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    TxnManager* tm_;
  };

  /// Streaming-cursor registration (Session::Query). A live cursor makes
  /// Commit refuse; EndCursor is called from the cursor's finalize hook.
  void BeginCursor() { live_cursors_.fetch_add(1); }
  void EndCursor() { live_cursors_.fetch_sub(1); }
  uint64_t live_cursors() const { return live_cursors_.load(); }

  /// Engine-wide statistics version: bumped by every successful non-empty
  /// commit and by EngineHandle::RefreshStats. Sessions compare against it
  /// to lazily re-derive stats; the plan cache invalidates on mismatch.
  uint64_t stats_version() const { return stats_version_.load(); }
  void BumpStatsVersion() { stats_version_.fetch_add(1); }

  /// The statistics of the current stats version, derived by the first
  /// caller after a bump and shared by every session over this database:
  /// one derivation per version, however many sessions read it. Call under
  /// a ReadGuard, so that no commit changes the data mid-derivation.
  /// `*version` receives the version the statistics belong to.
  std::shared_ptr<const Stats> CurrentStats(uint64_t* version);

  // --- Writer side ---------------------------------------------------------

  /// Opens the single write slot. kConflict (retryable) while another
  /// transaction is open.
  Status Begin(uint64_t* txn_id);

  /// Stages a batch onto the open transaction. Validation is deferred to
  /// commit, but provisional oids for the batch's inserts are assigned now
  /// (exact under the single-writer protocol) and returned via `staged` so
  /// later batches of the same transaction can reference them.
  Status Stage(uint64_t txn_id, const MutationBatch& batch,
               MutationResult* staged);

  /// Validates and applies everything staged, maintains materialized
  /// fixpoints, bumps the stats version. On kConflict (live cursors) the
  /// transaction stays open for a retry; on validation failure it is
  /// rolled back; on success it is closed.
  CommitResult Commit(uint64_t txn_id);

  /// Discards the staged work and closes the transaction.
  Status Rollback(uint64_t txn_id);

  bool txn_open() const;

  // --- Materialized fixpoints ---------------------------------------------

  /// Registers/drops/reads views. Serialized with commits via the manager
  /// mutex; registration scans the database, which is safe against
  /// concurrent readers (it only reads).
  Status RegisterView(const MaterializedFixSpec& spec);
  Status DropView(const std::string& name);
  /// Snapshot of a view's pairs in row-order-contract order ((src, dst)
  /// ascending). kInvalidArgument for unknown names.
  Status ViewPairs(const std::string& name,
                   std::vector<std::pair<Oid, Oid>>* out) const;
  struct ViewInfo {
    std::string name;
    std::string extent;
    uint64_t pairs = 0;
    bool exact = false;
  };
  std::vector<ViewInfo> Views() const;
  void SetFixPolicy(FixMaintenancePolicy p);
  FixMaintenancePolicy fix_policy() const;

 private:
  explicit TxnManager(Database* db) : db_(db) {}

  void BeginRead();
  void EndRead();
  int& ReadDepth();

  Database* db_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool commit_waiting_ = false;
  bool commit_active_ = false;
  uint64_t active_reads_ = 0;
  std::atomic<uint64_t> live_cursors_{0};
  std::atomic<uint64_t> stats_version_{1};
  std::mutex stats_mu_;  // guards stats_ and stats_at_
  std::shared_ptr<const Stats> stats_;
  uint64_t stats_at_ = 0;  // the version stats_ was derived at
  uint64_t open_txn_ = 0;  // 0 = none
  uint64_t next_txn_ = 1;
  MutationBatch staged_;
  MaterializedFixRegistry views_;
};

}  // namespace rodin

#endif  // RODIN_TXN_TXN_MANAGER_H_
