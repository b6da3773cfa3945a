#include "txn/txn_manager.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/check.h"
#include "common/string_util.h"
#include "cost/stats.h"
#include "storage/database.h"

namespace rodin {

// --- Per-database registry ---------------------------------------------------

namespace {
std::mutex& RegistryMu() {
  static std::mutex mu;
  return mu;
}
std::map<Database*, std::unique_ptr<TxnManager>>& Registry() {
  // Leaked on purpose: managers may be reached from detached threads at exit.
  static auto* reg = new std::map<Database*, std::unique_ptr<TxnManager>>();
  return *reg;
}
}  // namespace

TxnManager* TxnManager::For(Database* db) {
  RODIN_CHECK(db != nullptr, "TxnManager::For(null database)");
  std::lock_guard<std::mutex> lock(RegistryMu());
  auto& slot = Registry()[db];
  if (!slot) slot = std::unique_ptr<TxnManager>(new TxnManager(db));
  return slot.get();
}

void TxnManager::Forget(Database* db) {
  std::lock_guard<std::mutex> lock(RegistryMu());
  Registry().erase(db);
}

// --- Reader gate -------------------------------------------------------------

int& TxnManager::ReadDepth() {
  static thread_local std::unordered_map<const TxnManager*, int> depth;
  return depth[this];
}

void TxnManager::BeginRead() {
  int& depth = ReadDepth();
  if (depth > 0) {  // re-entrant on this thread; already counted
    ++depth;
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !commit_waiting_ && !commit_active_; });
  ++active_reads_;
  depth = 1;
}

void TxnManager::EndRead() {
  int& depth = ReadDepth();
  RODIN_CHECK(depth > 0, "EndRead without BeginRead");
  if (--depth > 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  RODIN_CHECK(active_reads_ > 0, "reader count underflow");
  --active_reads_;
  cv_.notify_all();
}

// --- Writer ------------------------------------------------------------------

Status TxnManager::Begin(uint64_t* txn_id) {
  RODIN_CHECK(txn_id != nullptr, "Begin(null out)");
  std::lock_guard<std::mutex> lock(mu_);
  if (open_txn_ != 0) {
    Status s = Status::Error(Status::Code::kConflict,
                             "another transaction is open; retry after it ends");
    s.detail = open_txn_;
    return s;
  }
  open_txn_ = next_txn_++;
  staged_.ops.clear();
  *txn_id = open_txn_;
  return Status::Ok();
}

Status TxnManager::Stage(uint64_t txn_id, const MutationBatch& batch,
                         MutationResult* staged) {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_txn_ == 0 || open_txn_ != txn_id) {
    return Status::Error(Status::Code::kInvalidArgument,
                         StrFormat("no open transaction with id %llu",
                                   static_cast<unsigned long long>(txn_id)));
  }
  // Provisional oid assignment: under the single-writer protocol nothing can
  // change extent sizes between now and commit, so `current size + inserts
  // already staged for the extent` is exactly the slot Database::Apply will
  // pick. Unknown extents get an invalid oid here and are rejected at commit.
  std::map<std::string, uint32_t> staged_inserts;
  for (const MutationOp& op : staged_.ops) {
    if (op.kind == MutationOpKind::kInsert) ++staged_inserts[op.extent];
  }
  if (staged != nullptr) *staged = MutationResult();
  for (const MutationOp& op : batch.ops) {
    if (staged == nullptr) break;
    switch (op.kind) {
      case MutationOpKind::kInsert: {
        ++staged->inserted;
        const Extent* e = db_->FindExtent(op.extent);
        if (e == nullptr) {
          staged->new_oids.push_back(Oid::Invalid());
          break;
        }
        const uint32_t slot = e->size() + staged_inserts[op.extent]++;
        staged->new_oids.push_back(db_->PayloadToOid(op.extent, slot));
        break;
      }
      case MutationOpKind::kDelete:
        ++staged->deleted;
        break;
      case MutationOpKind::kUpdate:
        ++staged->updated;
        break;
    }
  }
  staged_.ops.insert(staged_.ops.end(), batch.ops.begin(), batch.ops.end());
  if (staged != nullptr) staged->status = Status::Ok();
  return Status::Ok();
}

CommitResult TxnManager::Commit(uint64_t txn_id) {
  CommitResult res;
  std::unique_lock<std::mutex> lock(mu_);
  if (open_txn_ == 0 || open_txn_ != txn_id) {
    res.status =
        Status::Error(Status::Code::kInvalidArgument,
                      StrFormat("no open transaction with id %llu",
                                static_cast<unsigned long long>(txn_id)));
    return res;
  }
  res.stats_version = stats_version_.load();
  if (staged_.empty()) {  // empty commit: nothing changed, no version bump
    open_txn_ = 0;
    res.status = Status::Ok();
    return res;
  }
  auto refuse_cursors = [&](uint64_t n) {
    res.status = Status::Error(
        Status::Code::kConflict,
        StrFormat("commit refused: %llu streaming cursor(s) live; drain or "
                  "close them and retry",
                  static_cast<unsigned long long>(n)));
    res.status.detail = n;
  };
  uint64_t cursors = live_cursors_.load();
  if (cursors != 0) {  // cheap pre-check before gating any reader
    refuse_cursors(cursors);
    return res;  // transaction stays open for a retry
  }
  commit_waiting_ = true;
  cv_.wait(lock, [&] { return active_reads_ == 0; });
  commit_waiting_ = false;
  commit_active_ = true;
  if (open_txn_ != txn_id) {
    // Rolled back (e.g. a server connection dropped) while the wait had the
    // mutex released. Nothing staged any more; report it like a cancel.
    commit_active_ = false;
    cv_.notify_all();
    res.status = Status::Error(
        Status::Code::kCancelled,
        "transaction was rolled back while commit waited for readers");
    return res;
  }
  // A read that was in flight during the pre-check may have opened a cursor
  // before the gate closed; with reads drained the count is now stable.
  cursors = live_cursors_.load();
  if (cursors != 0) {
    commit_active_ = false;
    refuse_cursors(cursors);
    cv_.notify_all();
    return res;
  }

  MutationBatch batch = std::move(staged_);
  staged_ = MutationBatch();
  // The mutex stays held through the structural change: new readers block on
  // commit_active_ (or the mutex itself), and active_reads_ == 0 guarantees
  // nobody is inside the database.
  const std::vector<PageId> resident = db_->buffer_pool().SnapshotResident();
  std::vector<MaterializedFixRegistry::ViewDeltas> deltas =
      views_.PrepareDeltas(*db_, batch);
  MutationResult applied;
  const Status st = db_->Apply(batch, &applied);
  if (!st.ok()) {
    // Validation failed before anything was touched; the transaction rolls
    // back (staged work is gone) and the resident set is restored untouched.
    db_->buffer_pool().RestoreResident(resident);
    open_txn_ = 0;
    commit_active_ = false;
    cv_.notify_all();
    res.status = st;
    return res;
  }
  bool incremental = true;
  res.views_maintained =
      views_.Maintain(*db_, batch, applied.new_oids, std::move(deltas),
                      &incremental);
  res.used_incremental = incremental;
  db_->buffer_pool().RestoreResident(resident);
  res.ops_applied = batch.size();
  res.stats_version = stats_version_.fetch_add(1) + 1;
  open_txn_ = 0;
  commit_active_ = false;
  cv_.notify_all();
  res.status = Status::Ok();
  return res;
}

std::shared_ptr<const Stats> TxnManager::CurrentStats(uint64_t* version) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  const uint64_t v = stats_version_.load();
  if (stats_ == nullptr || stats_at_ != v) {
    stats_ = std::make_shared<const Stats>(Stats::Derive(*db_));
    stats_at_ = v;
  }
  *version = v;
  return stats_;
}

Status TxnManager::Rollback(uint64_t txn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_txn_ == 0 || open_txn_ != txn_id) {
    return Status::Error(Status::Code::kInvalidArgument,
                         StrFormat("no open transaction with id %llu",
                                   static_cast<unsigned long long>(txn_id)));
  }
  open_txn_ = 0;
  staged_.ops.clear();
  return Status::Ok();
}

bool TxnManager::txn_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_txn_ != 0;
}

// --- Materialized fixpoints --------------------------------------------------

Status TxnManager::RegisterView(const MaterializedFixSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.Register(spec, *db_);
}

Status TxnManager::DropView(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.Drop(name);
}

Status TxnManager::ViewPairs(const std::string& name,
                             std::vector<std::pair<Oid, Oid>>* out) const {
  RODIN_CHECK(out != nullptr, "ViewPairs(null out)");
  std::lock_guard<std::mutex> lock(mu_);
  const MaterializedFix* view = views_.Find(name);
  if (view == nullptr) {
    return Status::Error(Status::Code::kInvalidArgument,
                         "unknown materialized view '" + name + "'");
  }
  *out = view->Pairs();
  return Status::Ok();
}

std::vector<TxnManager::ViewInfo> TxnManager::Views() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ViewInfo> out;
  for (const std::string& name : views_.Names()) {
    const MaterializedFix* view = views_.Find(name);
    ViewInfo info;
    info.name = name;
    info.extent = view->spec().extent;
    info.pairs = view->size();
    info.exact = view->exact();
    out.push_back(std::move(info));
  }
  return out;
}

void TxnManager::SetFixPolicy(FixMaintenancePolicy p) {
  std::lock_guard<std::mutex> lock(mu_);
  views_.set_policy(p);
}

FixMaintenancePolicy TxnManager::fix_policy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.policy();
}

}  // namespace rodin
