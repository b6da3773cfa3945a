// Query lifecycle: deadlines, cooperative cancellation and the per-query
// memory budget (QueryContext / QueryOptions::query). The contract under test:
// a budget trip surfaces as the corresponding Status code in bounded time,
// partially-read streaming cursors can be cancelled from another thread
// (TSan target), a generous deadline changes nothing (anytime transformPT
// determinism), an over-budget working set spills with the answer, counters
// and measured cost of an unlimited run, and a commit refuses while a cursor
// streams but waits for a running Run.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "common/query_context.h"
#include "datagen/music_gen.h"
#include "exec/executor.h"
#include "storage/buffer_pool.h"
#include "support/reference_exec.h"

namespace rodin {
namespace {

const char kFig3Text[] = R"(
relation Influencer includes
  (select [master: x.master, disciple: x, gen: 1] from x in Composer)
  union
  (select [master: i.master, disciple: x, gen: i.gen + 1]
   from i in Influencer, x in Composer where i.disciple = x.master)

select [dname: j.disciple.name] from j in Influencer
where j.master.works.instruments.iname = "harpsichord" and j.gen >= 6
)";

std::vector<std::string> Keys(const Table& t) {
  std::vector<std::string> out;
  for (const Row& row : t.rows) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    out.push_back(std::move(key));
  }
  return out;
}

class LifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MusicConfig config;
    config.num_composers = 40;
    config.lineage_depth = 8;
    g_ = GenerateMusicDb(config, PaperMusicPhysical());
  }
  GeneratedDb g_;
};

TEST(QueryContextTest, CancelTokenCopiesShareOneFlag) {
  CancelToken a;
  CancelToken b = a;  // copy shares the flag
  EXPECT_FALSE(a.cancelled());
  EXPECT_FALSE(b.cancelled());
  b.RequestCancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  b.RequestCancel();  // idempotent
  EXPECT_TRUE(a.cancelled());
}

TEST(QueryContextTest, UnarmedDeadlineChecksOk) {
  QueryContext ctx;
  ctx.deadline_ms = 1;
  // Never armed: no deadline even though deadline_ms is set.
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_TRUE(ctx.Check().ok());
  EXPECT_FALSE(ctx.Expired());
}

TEST(QueryContextTest, ArmedDeadlineExpires) {
  QueryContext ctx;
  ctx.deadline_ms = 1;
  ctx.ArmDeadline();
  EXPECT_TRUE(ctx.has_deadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(ctx.Expired());
  EXPECT_EQ(ctx.Check().code, Status::Code::kDeadlineExceeded);
}

TEST(QueryContextTest, CancelBeatsDeadline) {
  QueryContext ctx;
  ctx.deadline_ms = 1;
  ctx.ArmDeadline();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ctx.cancel.RequestCancel();
  EXPECT_EQ(ctx.Check().code, Status::Code::kCancelled);
}

TEST_F(LifecycleTest, OneMillisecondDeadlineReturnsInBoundedTime) {
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  options.query.deadline_ms = 1;
  const auto start = std::chrono::steady_clock::now();
  const QueryRun run = session.Run(kFig3Text, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Bounded: the run must come back promptly, not grind to completion.
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  // Either the budget tripped (kDeadlineExceeded) or the run beat the clock
  // — possibly with an anytime-truncated transformPT stage. Anything else
  // (kExec, kInternal, a crash) is a failure.
  if (!run.ok()) {
    EXPECT_EQ(run.status.code, Status::Code::kDeadlineExceeded)
        << run.status.ToString();
  }
}

TEST_F(LifecycleTest, PreCancelledRunReturnsCancelled) {
  Session session(g_.db.get());
  QueryOptions options;
  options.query.cancel.RequestCancel();
  const QueryRun run = session.Run(kFig3Text, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status.code, Status::Code::kCancelled);
  EXPECT_TRUE(run.answer.rows.empty());
}

TEST_F(LifecycleTest, CancelPartiallyReadCursorFromAnotherThread) {
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  options.batch_rows = 1;  // many coordinator poll points
  CancelToken token = options.query.cancel;  // caller-side copy

  ResultCursor cur = session.Query(kFig3Text, options);
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  RowBatch batch;
  ASSERT_TRUE(cur.Next(&batch));  // partially read

  std::thread canceller([token] { token.RequestCancel(); });
  canceller.join();

  // The next coordinator poll observes the flag: the stream ends with
  // kCancelled, the cursor finalizes (partial accounting replays), and no
  // memory is leaked (ASan/TSan builds of this test verify that part).
  while (cur.Next(&batch)) {
  }
  EXPECT_TRUE(cur.finished());
  EXPECT_FALSE(cur.ok());
  EXPECT_EQ(cur.status().code, Status::Code::kCancelled);
}

TEST_F(LifecycleTest, ConcurrentCancelWhileStreaming) {
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  options.batch_rows = 1;
  CancelToken token = options.query.cancel;

  ResultCursor cur = session.Query(kFig3Text, options);
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();

  // Genuinely concurrent: the canceller races the reader. Either the stream
  // finishes clean (cancel landed too late) or it stops with kCancelled;
  // TSan verifies the race on the shared flag is benign.
  std::thread canceller([token] { token.RequestCancel(); });
  RowBatch batch;
  while (cur.Next(&batch)) {
  }
  canceller.join();
  EXPECT_TRUE(cur.finished());
  if (!cur.ok()) {
    EXPECT_EQ(cur.status().code, Status::Code::kCancelled);
  }
}

TEST_F(LifecycleTest, DeadlineStopsPartiallyReadCursor) {
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  options.batch_rows = 1;
  options.query.deadline_ms = 200;

  ResultCursor cur = session.Query(kFig3Text, options);
  if (!cur.ok()) {
    // The optimizer itself ran out of budget — also a valid outcome.
    EXPECT_EQ(cur.status().code, Status::Code::kDeadlineExceeded);
    return;
  }
  RowBatch batch;
  cur.Next(&batch);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  // Deadline has certainly elapsed now; the next poll must end the stream.
  while (cur.Next(&batch)) {
  }
  EXPECT_TRUE(cur.finished());
  ASSERT_FALSE(cur.ok());
  EXPECT_EQ(cur.status().code, Status::Code::kDeadlineExceeded);
}

// Reads exactly `batches_before_cancel` single-row batches, then requests
// cancellation from the reader thread itself — a deterministic cancel point:
// the coordinator observes the flag on the next poll, so two runs stop after
// identical work.
struct PartialRun {
  Status::Code code;
  size_t rows_read;
  ExecCounters counters;
  double measured_cost;
};

PartialRun CancelAfterBatches(Session& session, size_t batches_before_cancel) {
  QueryOptions options;
  options.cold = true;
  options.batch_rows = 1;
  CancelToken token = options.query.cancel;

  ResultCursor cur = session.Query(kFig3Text, options);
  EXPECT_TRUE(cur.ok()) << cur.status().ToString();
  PartialRun out{};
  RowBatch batch;
  for (size_t i = 0; i < batches_before_cancel && cur.Next(&batch); ++i) {
    out.rows_read += batch.rows.size();
  }
  token.RequestCancel();  // mid-batch-stream, deterministic poll point
  while (cur.Next(&batch)) out.rows_read += batch.rows.size();
  EXPECT_TRUE(cur.finished());
  out.code = cur.status().code;
  out.counters = cur.counters();
  out.measured_cost = cur.measured_cost();
  return out;
}

TEST_F(LifecycleTest, MidStreamCancelPartialAccountingIsDeterministic) {
  // A cursor cancelled at the same mid-stream point finalizes with
  // *identical partial accounting* on every run. Partial replay is the hard
  // case: the compiled operators must have charged and counted the same
  // work at every batch boundary, not merely at the end of the run.
  Session session(g_.db.get());
  const PartialRun first = CancelAfterBatches(session, 3);
  const PartialRun second = CancelAfterBatches(session, 3);

  EXPECT_EQ(first.code, Status::Code::kCancelled);
  EXPECT_EQ(second.code, Status::Code::kCancelled);
  EXPECT_EQ(second.rows_read, first.rows_read);
  EXPECT_EQ(second.counters.predicate_evals, first.counters.predicate_evals);
  EXPECT_EQ(second.counters.method_calls, first.counters.method_calls);
  EXPECT_EQ(second.counters.method_cost, first.counters.method_cost);
  EXPECT_EQ(second.counters.rows_produced, first.counters.rows_produced);
  EXPECT_EQ(second.counters.fix_iterations, first.counters.fix_iterations);
  EXPECT_EQ(second.measured_cost, first.measured_cost);
}

TEST_F(LifecycleTest, ConcurrentCancelWhileStreamingOnMorselWorkers) {
  // TSan target: the canceller races a reader that is executing bytecode
  // chunks on morsel workers. Same benign-race contract as the sequential
  // variant — clean finish or kCancelled, nothing else.
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  options.batch_rows = 1;
  options.exec_threads = 4;
  CancelToken token = options.query.cancel;

  ResultCursor cur = session.Query(kFig3Text, options);
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  std::thread canceller([token] { token.RequestCancel(); });
  RowBatch batch;
  while (cur.Next(&batch)) {
  }
  canceller.join();
  EXPECT_TRUE(cur.finished());
  if (!cur.ok()) {
    EXPECT_EQ(cur.status().code, Status::Code::kCancelled);
  }
}

TEST_F(LifecycleTest, GenerousDeadlineIsDeterministicallyIdentical) {
  // Anytime transformPT determinism: the budget polls consume no RNG draws,
  // so a run whose deadline never trips must choose the identical plan (and
  // report no truncation) as a run with no deadline at all.
  Session session(g_.db.get());
  QueryOptions plain;
  plain.cold = true;
  const QueryRun base = session.Run(kFig3Text, plain);
  ASSERT_TRUE(base.ok()) << base.error();

  QueryOptions generous;
  generous.cold = true;
  generous.query.deadline_ms = 600000;  // 10 minutes: never trips
  const QueryRun bounded = session.Run(kFig3Text, generous);
  ASSERT_TRUE(bounded.ok()) << bounded.error();

  EXPECT_EQ(bounded.plan_text, base.plan_text);
  EXPECT_EQ(bounded.optimized.cost, base.optimized.cost);
  for (const StageReport& s : bounded.optimized.stages) {
    EXPECT_FALSE(s.truncated) << s.stage;
  }
  EXPECT_EQ(Keys(bounded.answer), Keys(base.answer));
}

TEST_F(LifecycleTest, MemoryBudgetDegradesGracefully) {
  Session session(g_.db.get());
  QueryOptions plain;
  plain.cold = true;
  const QueryRun base = session.Run(kFig3Text, plain);
  ASSERT_TRUE(base.ok()) << base.error();

  // A small (but allocation-honouring) budget bounds only the temp-page
  // ledger: over-budget working sets spill, so the query runs to completion
  // with the same answer, counters and measured cost. The budget also
  // enters costing; the plan shape must not move, or the comparison below
  // would read a plan change as an accounting difference.
  QueryOptions bounded = plain;
  bounded.query.memory_budget_pages = 16;
  const QueryRun run = session.Run(kFig3Text, bounded);
  ASSERT_TRUE(run.ok()) << run.status.ToString();
  ASSERT_EQ(run.optimized.plan->Fingerprint(),
            base.optimized.plan->Fingerprint());
  EXPECT_EQ(Keys(run.answer), Keys(base.answer));
  ExpectSameCounters(run.counters, base.counters);
  EXPECT_EQ(run.measured_cost, base.measured_cost);
}

// The mutation-vs-live-cursor contract (docs/ROBUSTNESS.md): a commit while
// a streaming cursor is live REFUSES with retryable kConflict (detail = the
// live-cursor count) rather than mutating under the reader. The cursor
// drains its complete pre-commit answer; the refused transaction stays open
// and commits once the cursor is gone.
TEST_F(LifecycleTest, CommitRefusedWhileCursorStreamsThenSucceeds) {
  Session reader(g_.db.get());
  QueryOptions options;
  options.batch_rows = 2;  // keep the cursor alive across several batches
  const QueryRun oracle = reader.Run(kFig3Text);
  ASSERT_TRUE(oracle.ok()) << oracle.error();

  ResultCursor cur = reader.Query(kFig3Text, options);
  ASSERT_TRUE(cur.ok()) << cur.error();
  RowBatch batch;
  ASSERT_TRUE(cur.Next(&batch));  // mid-stream: the cursor is now live

  Session writer(g_.db.get());
  uint64_t txn = 0;
  ASSERT_TRUE(writer.Begin(&txn).ok());
  MutationBatch mutation;
  mutation.Insert("Composer", {{"name", Value::Str("Interloper")}});
  ASSERT_TRUE(writer.Apply(txn, mutation).ok());

  const CommitResult refused = writer.Commit(txn);
  EXPECT_EQ(refused.status.code, Status::Code::kConflict);
  EXPECT_TRUE(refused.status.retryable());
  EXPECT_EQ(refused.status.detail, 1u);  // one live cursor

  // The cursor streams its full pre-commit snapshot.
  Table streamed;
  for (Row& r : batch.rows) streamed.rows.push_back(std::move(r));
  while (cur.Next(&batch)) {
    for (Row& r : batch.rows) streamed.rows.push_back(std::move(r));
  }
  EXPECT_TRUE(cur.finished());
  EXPECT_EQ(Keys(streamed), Keys(oracle.answer));

  // Drained cursor => the same (still-open) transaction commits now.
  const CommitResult ok = writer.Commit(txn);
  ASSERT_TRUE(ok.ok()) << ok.status.ToString();
  EXPECT_EQ(ok.ops_applied, 1u);
}

// The drained side of the same contract: Run holds the read gate for its
// whole drain and never registers its cursor, so a commit issued while a
// Run executes on another thread waits for it and then succeeds — never
// kConflict — and the run answers from the pre-commit state. A method the
// query calls parks the run mid-execution until the writer has issued its
// commit. TSan target.
TEST(LifecycleCommitTest, CommitDuringRunWaitsAndSucceeds) {
  std::atomic<bool> armed{false};
  std::atomic<bool> executing{false};
  Schema schema;
  ClassDef* item = schema.AddClass("Item");
  schema.AddAttribute(item, {"v", schema.types().Int(), false, 0, "", ""});
  schema.AddAttribute(item, {"probe", schema.types().Int(), true, 1.0, "", ""});
  Database db(&schema);
  for (int i = 0; i < 20; ++i) {
    db.Set(db.NewObject("Item"), "v", Value::Int(i));
  }
  db.RegisterMethod("Item", "probe", [&](const Database& d, Oid oid) {
    if (armed.exchange(false)) {
      executing = true;
      // Linger, so the writer's commit is issued while the run executes.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    return d.GetRaw(oid, "v");
  });
  db.Finalize(PhysicalConfig{});
  const char* query = "select [v: x.v] from x in Item where x.probe >= 0";

  Session reader(&db);
  const QueryRun pre = reader.Run(query);
  ASSERT_TRUE(pre.ok()) << pre.error();
  ASSERT_EQ(pre.answer.rows.size(), 20u);

  Session writer(&db);
  uint64_t txn = 0;
  ASSERT_TRUE(writer.Begin(&txn).ok());
  MutationBatch mutation;
  mutation.Insert("Item", {{"v", Value::Int(100)}});
  ASSERT_TRUE(writer.Apply(txn, mutation).ok());

  armed = true;
  QueryRun during;
  std::atomic<bool> returned{false};
  std::thread run_thread([&] {
    during = reader.Run(query);
    returned = true;
  });
  while (!executing && !returned) std::this_thread::yield();
  const CommitResult commit = writer.Commit(txn);
  run_thread.join();

  ASSERT_TRUE(executing.load());
  ASSERT_TRUE(commit.ok()) << commit.status.ToString();
  ASSERT_TRUE(during.ok()) << during.error();
  EXPECT_EQ(Keys(during.answer), Keys(pre.answer));
  const QueryRun post = reader.Run(query);
  ASSERT_TRUE(post.ok()) << post.error();
  EXPECT_EQ(post.answer.rows.size(), 21u);
}

// An abandoned (destroyed-early) cursor must release the gate too — early
// destruction finalizes the stream, so a commit afterwards goes through.
TEST_F(LifecycleTest, AbandonedCursorReleasesCommitGate) {
  Session reader(g_.db.get());
  Session writer(g_.db.get());
  {
    QueryOptions options;
    options.batch_rows = 2;
    ResultCursor cur = reader.Query(kFig3Text, options);
    ASSERT_TRUE(cur.ok()) << cur.error();
    RowBatch batch;
    ASSERT_TRUE(cur.Next(&batch));
  }  // cursor destroyed partially read

  MutationBatch mutation;
  mutation.Insert("Composer", {{"name", Value::Str("AfterAbandon")}});
  const CommitResult commit = writer.Mutate(mutation);
  ASSERT_TRUE(commit.ok()) << commit.status.ToString();
}

TEST(LifecycleHardBudgetTest, OverBudgetWorkingSetSpillsAndCompletes) {
  // Big enough that the fixpoint's materialized tables each need several
  // pages: before spill-to-disk landed, a 1-page budget hard-failed this
  // query with kResourceExhausted.
  MusicConfig config;
  config.num_composers = 400;
  config.lineage_depth = 10;
  GeneratedDb g = GenerateMusicDb(config, PaperMusicPhysical());
  Session session(g.db.get());
  QueryOptions plain;
  plain.cold = true;
  const QueryRun base = session.Run(kFig3Text, plain);
  ASSERT_TRUE(base.ok()) << base.error();

  // A 1-page budget degrades gracefully: the working sets spill, and
  // the answer, counters and measured cost equal the unlimited run's.
  QueryOptions bounded = plain;
  bounded.query.memory_budget_pages = 1;
  const QueryRun run = session.Run(kFig3Text, bounded);
  ASSERT_TRUE(run.ok()) << run.status.ToString();
  ASSERT_EQ(run.optimized.plan->Fingerprint(),
            base.optimized.plan->Fingerprint());
  EXPECT_EQ(Keys(run.answer), Keys(base.answer));
  ExpectSameCounters(run.counters, base.counters);
  EXPECT_EQ(run.measured_cost, base.measured_cost);
}

TEST(BufferPoolBudgetTest, SnapshotRestoreRoundTripsHitPattern) {
  BufferPool pool(4);
  for (PageId p = 0; p < 4; ++p) pool.Fetch(p);
  const std::vector<PageId> snap = pool.SnapshotResident();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front(), 3u);  // MRU first

  // Disturb the resident set, then restore: the same fetch sequence must
  // see the same hits as it would have from the snapshot point.
  for (PageId p = 50; p < 60; ++p) pool.Fetch(p);
  pool.RestoreResident(snap);
  EXPECT_EQ(pool.resident_pages(), 4u);
  for (PageId p = 0; p < 4; ++p) {
    EXPECT_TRUE(pool.Fetch(p)) << "page " << p << " should be resident";
  }
}

}  // namespace
}  // namespace rodin
