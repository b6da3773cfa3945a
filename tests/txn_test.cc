// The mutation API and transaction layer: begin/stage/commit CRUD through
// Session, provisional oid assignment, single-writer conflicts, rollback,
// commit-time validation (referential integrity), engine-wide stats
// versioning with lazy, shared statistics refresh and plan-cache
// invalidation, and the buffer-pool identity contract (a commit never
// perturbs the resident set).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/session.h"
#include "datagen/music_gen.h"
#include "datagen/parts_gen.h"
#include "storage/buffer_pool.h"
#include "storage/database.h"
#include "txn/txn_manager.h"

namespace rodin {
namespace {

class TxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MusicConfig config;
    config.num_composers = 40;
    config.lineage_depth = 8;
    g_ = GenerateMusicDb(config, PaperMusicPhysical());
  }

  /// Rows of `select [n: x.name] from x in Composer where x.name = <name>`.
  size_t CountByName(Session& session, const std::string& name) {
    const QueryRun run = session.Run(
        "select [n: x.name] from x in Composer where x.name = \"" + name +
        "\"");
    EXPECT_TRUE(run.ok()) << run.error();
    return run.answer.rows.size();
  }

  GeneratedDb g_;
};

TEST_F(TxnTest, BeginStageCommitInsert) {
  Session session(g_.db.get());
  const uint32_t before = g_.db->FindExtent("Composer")->live_size();

  uint64_t txn = 0;
  ASSERT_TRUE(session.Begin(&txn).ok());
  MutationBatch batch;
  batch.Insert("Composer", {{"name", Value::Str("Brand New")}});
  const MutationResult staged = session.Apply(txn, batch);
  ASSERT_TRUE(staged.ok()) << staged.status.ToString();
  EXPECT_EQ(staged.inserted, 1u);
  ASSERT_EQ(staged.new_oids.size(), 1u);
  // Provisional oid: the next slot of the extent, promised at staging time.
  EXPECT_TRUE(staged.new_oids[0].valid());
  EXPECT_EQ(staged.new_oids[0].slot, before);

  // Nothing is visible until commit.
  EXPECT_EQ(CountByName(session, "Brand New"), 0u);

  const CommitResult commit = session.Commit(txn);
  ASSERT_TRUE(commit.ok()) << commit.status.ToString();
  EXPECT_EQ(commit.ops_applied, 1u);
  EXPECT_EQ(g_.db->FindExtent("Composer")->live_size(), before + 1);
  EXPECT_EQ(CountByName(session, "Brand New"), 1u);
  EXPECT_EQ(g_.db->GetRaw(staged.new_oids[0], "name").AsString(), "Brand New");
}

TEST_F(TxnTest, UpdateAndDeleteVisibleToQueries) {
  Session session(g_.db.get());
  // composer_0 heads lineage 0; rename it and check both names' row counts.
  const Oid target = g_.db->PayloadToOid("Composer", 0);
  ASSERT_EQ(g_.db->GetRaw(target, "name").AsString(), "composer_0");

  MutationBatch batch;
  batch.Update("Composer", target, {{"name", Value::Str("renamed_0")}});
  const CommitResult commit = session.Mutate(batch);
  ASSERT_TRUE(commit.ok()) << commit.status.ToString();
  EXPECT_EQ(CountByName(session, "composer_0"), 0u);
  EXPECT_EQ(CountByName(session, "renamed_0"), 1u);
}

TEST_F(TxnTest, SelectionIndexMaintainedAcrossMutations) {
  PartsConfig config;
  config.parts_per_level = 20;
  config.num_levels = 3;
  GeneratedDb parts = GeneratePartsDb(config, DefaultPartsPhysical());
  Session session(parts.db.get());
  // Project vendor too: projection dedups (set semantics), and the two
  // matches below differ only in vendor.
  const char* query =
      R"(select [p: x.pname, v: x.vendor] from x in Part
         where x.pname = "special_part")";

  const QueryRun before = session.Run(query);
  ASSERT_TRUE(before.ok()) << before.error();
  EXPECT_EQ(before.answer.rows.size(), 0u);

  // Insert one matching part, rename an existing one onto the same key, and
  // delete a root. Parts are generated leaves-first, so level-0 roots (the
  // parts referenced by nobody) occupy the last parts_per_level slots.
  const uint32_t root0 = (config.num_levels - 1) * config.parts_per_level;
  MutationBatch batch;
  batch.Insert("Part", {{"pname", Value::Str("special_part")},
                        {"vendor", Value::Str("vendor_x")},
                        {"mass", Value::Real(1.0)},
                        {"unit_cost", Value::Int(5)},
                        {"subparts", Value::MakeSet({})}});
  batch.Update("Part", parts.db->PayloadToOid("Part", 0),
               {{"pname", Value::Str("special_part")}});
  batch.Delete("Part", parts.db->PayloadToOid("Part", root0 + 1));
  const CommitResult commit = session.Mutate(batch);
  ASSERT_TRUE(commit.ok()) << commit.status.ToString();

  const QueryRun after = session.Run(query);
  ASSERT_TRUE(after.ok()) << after.error();
  EXPECT_EQ(after.answer.rows.size(), 2u);

  // The deleted part's name no longer matches anything (index entry gone).
  const QueryRun gone = session.Run(
      R"(select [p: x.pname] from x in Part where x.pname = "part_L0_1")");
  ASSERT_TRUE(gone.ok()) << gone.error();
  EXPECT_EQ(gone.answer.rows.size(), 0u);
}

TEST_F(TxnTest, SingleWriterDoubleBeginConflicts) {
  Session a(g_.db.get());
  Session b(g_.db.get());
  uint64_t ta = 0, tb = 0;
  ASSERT_TRUE(a.Begin(&ta).ok());
  const Status refused = b.Begin(&tb);
  EXPECT_EQ(refused.code, Status::Code::kConflict);
  EXPECT_TRUE(refused.retryable());
  EXPECT_EQ(refused.detail, ta);  // who holds the slot

  ASSERT_TRUE(a.Rollback(ta).ok());
  EXPECT_TRUE(b.Begin(&tb).ok());  // slot free again
  EXPECT_TRUE(b.Rollback(tb).ok());
}

TEST_F(TxnTest, RollbackDiscardsStagedOps) {
  Session session(g_.db.get());
  uint64_t txn = 0;
  ASSERT_TRUE(session.Begin(&txn).ok());
  MutationBatch batch;
  batch.Insert("Composer", {{"name", Value::Str("Phantom")}});
  ASSERT_TRUE(session.Apply(txn, batch).ok());
  ASSERT_TRUE(session.Rollback(txn).ok());
  EXPECT_EQ(CountByName(session, "Phantom"), 0u);
  // The transaction is gone: committing it is an error, not a no-op.
  EXPECT_EQ(session.Commit(txn).status.code, Status::Code::kInvalidArgument);
}

TEST_F(TxnTest, ReferentialIntegrityRefusalRollsBack) {
  Session session(g_.db.get());
  // composer_0 is composer_1's master (lineage order): deleting it would
  // leave a dangling ref, so commit-time validation refuses the whole batch
  // — including the otherwise-fine insert staged alongside.
  MutationBatch batch;
  batch.Insert("Composer", {{"name", Value::Str("Rider")}});
  batch.Delete("Composer", g_.db->PayloadToOid("Composer", 0));
  const uint64_t version = session.txn().stats_version();
  const CommitResult commit = session.Mutate(batch);
  EXPECT_EQ(commit.status.code, Status::Code::kInvalidArgument);
  EXPECT_EQ(CountByName(session, "Rider"), 0u);
  EXPECT_EQ(CountByName(session, "composer_0"), 1u);
  EXPECT_EQ(session.txn().stats_version(), version);  // nothing changed

  // The failed commit rolled back; the write slot is free.
  uint64_t txn = 0;
  EXPECT_TRUE(session.Begin(&txn).ok());
  EXPECT_TRUE(session.Rollback(txn).ok());
}

TEST_F(TxnTest, CommitBumpsStatsVersionAndInvalidatesPlanCache) {
  Session session(g_.db.get());
  const char* query = R"(select [n: x.name] from x in Composer
                         where x.name = "Bach")";
  ASSERT_FALSE(session.Run(query).plan_cached);
  ASSERT_TRUE(session.Run(query).plan_cached);

  const uint64_t version = session.txn().stats_version();
  MutationBatch batch;
  batch.Insert("Composer", {{"name", Value::Str("Invalidator")}});
  const CommitResult commit = session.Mutate(batch);
  ASSERT_TRUE(commit.ok()) << commit.status.ToString();
  EXPECT_EQ(commit.stats_version, version + 1);
  EXPECT_EQ(session.txn().stats_version(), version + 1);

  // The session lazily re-derives stats and drops the stale cache entry.
  const QueryRun after = session.Run(query);
  ASSERT_TRUE(after.ok()) << after.error();
  EXPECT_FALSE(after.plan_cached);
  EXPECT_TRUE(session.Run(query).plan_cached);  // re-cached at new version
}

TEST_F(TxnTest, EmptyCommitDoesNotBumpStatsVersion) {
  Session session(g_.db.get());
  const uint64_t version = session.txn().stats_version();
  uint64_t txn = 0;
  ASSERT_TRUE(session.Begin(&txn).ok());
  const CommitResult commit = session.Commit(txn);
  ASSERT_TRUE(commit.ok()) << commit.status.ToString();
  EXPECT_EQ(commit.ops_applied, 0u);
  EXPECT_EQ(session.txn().stats_version(), version);
}

TEST_F(TxnTest, MutationsAreVisibleAcrossSessions) {
  Session writer(g_.db.get());
  Session reader(g_.db.get());
  ASSERT_EQ(CountByName(reader, "Crosstalk"), 0u);

  MutationBatch batch;
  batch.Insert("Composer", {{"name", Value::Str("Crosstalk")}});
  ASSERT_TRUE(writer.Mutate(batch).ok());

  // The pre-existing reader session picks the commit up on its next query
  // (lazy stats refresh keyed on the engine-wide version).
  EXPECT_EQ(CountByName(reader, "Crosstalk"), 1u);
}

TEST_F(TxnTest, SessionsShareOneStatsDerivationPerVersion) {
  Session a(g_.db.get());
  Session b(g_.db.get());
  EXPECT_EQ(&a.stats(), &b.stats());
  const double names = a.stats().Attr("Composer", "name").distinct;

  MutationBatch batch;
  batch.Insert("Composer", {{"name", Value::Str("Shared Stats")}});
  ASSERT_TRUE(a.Mutate(batch).ok());

  // The first session to query after the commit derives the new version's
  // statistics; the other picks up the same object.
  EXPECT_EQ(CountByName(b, "Shared Stats"), 1u);
  EXPECT_EQ(b.stats().Attr("Composer", "name").distinct, names + 1);
  EXPECT_EQ(CountByName(a, "Shared Stats"), 1u);
  EXPECT_EQ(&a.stats(), &b.stats());
}

TEST_F(TxnTest, EngineRefreshStatsBumpsEngineWideVersion) {
  EngineOptions options;
  options.dataset = "music";
  options.size = 30;
  Status status;
  std::unique_ptr<EngineHandle> engine = EngineHandle::Create(options, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();
  std::unique_ptr<Session> session = engine->NewSession();
  const uint64_t version = session->txn().stats_version();
  engine->RefreshStats();
  EXPECT_EQ(session->txn().stats_version(), version + 1);
}

TEST_F(TxnTest, CommitLeavesResidentSetIdentical) {
  Session session(g_.db.get());
  // Warm the pool with a real query, snapshot, mutate, compare: the write
  // path must not perturb what a subsequent cold/warm measurement sees.
  ASSERT_TRUE(session
                  .Run(R"(select [n: x.name] from x in Composer
                          where x.birthyear > 1600)")
                  .ok());
  const std::vector<PageId> before = g_.db->buffer_pool().SnapshotResident();

  MutationBatch batch;
  batch.Insert("Composer", {{"name", Value::Str("Resident")}});
  batch.Update("Composer", g_.db->PayloadToOid("Composer", 0),
               {{"name", Value::Str("renamed_0")}});
  ASSERT_TRUE(session.Mutate(batch).ok());

  EXPECT_EQ(g_.db->buffer_pool().SnapshotResident(), before);
}

TEST_F(TxnTest, BatchInternalReferencesResolve) {
  Session session(g_.db.get());
  uint64_t txn = 0;
  ASSERT_TRUE(session.Begin(&txn).ok());
  MutationBatch first;
  first.Insert("Composer", {{"name", Value::Str("New Master")}});
  const MutationResult staged = session.Apply(txn, first);
  ASSERT_TRUE(staged.ok());
  ASSERT_EQ(staged.new_oids.size(), 1u);

  // A second staged batch may reference the provisional oid.
  MutationBatch second;
  second.Insert("Composer", {{"name", Value::Str("New Disciple")},
                             {"master", Value::Ref(staged.new_oids[0])}});
  ASSERT_TRUE(session.Apply(txn, second).ok());
  const CommitResult commit = session.Commit(txn);
  ASSERT_TRUE(commit.ok()) << commit.status.ToString();
  EXPECT_EQ(commit.ops_applied, 2u);

  const QueryRun run = session.Run(
      R"(select [m: x.master.name] from x in Composer
         where x.name = "New Disciple")");
  ASSERT_TRUE(run.ok()) << run.error();
  ASSERT_EQ(run.answer.rows.size(), 1u);
  EXPECT_EQ(run.answer.rows[0][0].AsString(), "New Master");
}

}  // namespace
}  // namespace rodin
