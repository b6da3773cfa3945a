// Session::Query / ResultCursor: the streaming surface must serve the same
// answer (and final accounting) as the materializing Run() path, batch by
// batch, row by row, or drained via ToTable; error paths come back as
// cursors; early destruction finalizes the partial run without crashing.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/session.h"
#include "datagen/music_gen.h"
#include "query/paper_queries.h"
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

class ResultCursorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MusicConfig config;
    config.num_composers = 40;
    config.lineage_depth = 8;
    g_ = GenerateMusicDb(config, PaperMusicPhysical());
  }
  GeneratedDb g_;
};

TEST_F(ResultCursorTest, BatchesMatchRun) {
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  const QueryRun run = session.Run(kFig3Text, options);
  ASSERT_TRUE(run.ok()) << run.error();
  ASSERT_FALSE(run.answer.rows.empty());

  options.batch_rows = 3;  // force several batches
  ResultCursor cur = session.Query(kFig3Text, options);
  ASSERT_TRUE(cur.ok()) << cur.error();
  EXPECT_FALSE(cur.plan_text().empty());
  EXPECT_EQ(cur.plan_text(), run.plan_text);

  Table streamed;
  streamed.schema = cur.schema();
  RowBatch batch;
  while (cur.Next(&batch)) {
    EXPECT_LE(batch.size(), 3u);
    for (Row& r : batch.rows) streamed.rows.push_back(std::move(r));
  }
  EXPECT_TRUE(cur.finished());
  EXPECT_EQ(Keys(streamed), Keys(run.answer));

  // Final accounting equals the materializing path's.
  ExpectSameCounters(cur.counters(), run.counters);
  EXPECT_EQ(cur.measured_cost(), run.measured_cost);
}

TEST_F(ResultCursorTest, RowAtATime) {
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  const QueryRun run = session.Run(kFig3Text, options);
  ASSERT_TRUE(run.ok()) << run.error();

  options.batch_rows = 2;
  ResultCursor cur = session.Query(kFig3Text, options);
  ASSERT_TRUE(cur.ok()) << cur.error();
  std::vector<std::string> keys;
  Row row;
  while (cur.Next(&row)) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    keys.push_back(std::move(key));
  }
  EXPECT_EQ(keys, Keys(run.answer));
}

TEST_F(ResultCursorTest, ToTableAfterPartialRead) {
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  options.batch_rows = 2;
  const QueryRun run = session.Run(kFig3Text, options);
  ASSERT_TRUE(run.ok()) << run.error();

  ResultCursor cur = session.Query(kFig3Text, options);
  ASSERT_TRUE(cur.ok()) << cur.error();
  // Pull one row through the row-at-a-time view, then drain the rest:
  // nothing may be lost or duplicated at the seam.
  Row first;
  ASSERT_TRUE(cur.Next(&first));
  Table rest = cur.ToTable();
  EXPECT_TRUE(cur.finished());
  EXPECT_EQ(rest.rows.size() + 1, run.answer.rows.size());
}

TEST_F(ResultCursorTest, ParallelCursorSameAnswer) {
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  const QueryRun run = session.Run(kFig3Text, options);
  ASSERT_TRUE(run.ok()) << run.error();

  options.exec_threads = 4;
  ResultCursor cur = session.Query(kFig3Text, options);
  ASSERT_TRUE(cur.ok()) << cur.error();
  Table streamed = cur.ToTable();
  EXPECT_EQ(Keys(streamed), Keys(run.answer));
  EXPECT_EQ(cur.measured_cost(), run.measured_cost);
}

TEST_F(ResultCursorTest, ParseErrorCursor) {
  Session session(g_.db.get());
  ResultCursor cur = session.Query("select [n x.name] from x in Composer");
  EXPECT_FALSE(cur.ok());
  EXPECT_EQ(cur.status().code, Status::Code::kParse);
  EXPECT_TRUE(cur.finished());
  RowBatch batch;
  EXPECT_FALSE(cur.Next(&batch));
}

TEST_F(ResultCursorTest, OptimizeErrorCursor) {
  Session session(g_.db.get());
  ResultCursor cur =
      session.Query("select [n: x.nosuchattr] from x in Composer");
  EXPECT_FALSE(cur.ok());
  EXPECT_EQ(cur.status().code, Status::Code::kSemantic);
}

TEST_F(ResultCursorTest, EarlyDestructionIsSafe) {
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  options.batch_rows = 1;
  {
    ResultCursor cur = session.Query(kFig3Text, options);
    ASSERT_TRUE(cur.ok()) << cur.error();
    RowBatch batch;
    ASSERT_TRUE(cur.Next(&batch));  // consume one batch, then drop the cursor
  }
  // The session (and its database) must still be fully usable.
  const QueryRun run = session.Run(kFig3Text, options);
  ASSERT_TRUE(run.ok()) << run.error();
  EXPECT_FALSE(run.answer.rows.empty());
}

TEST_F(ResultCursorTest, MoveAssignOverPartialCursorIsSafe) {
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  options.batch_rows = 1;
  ResultCursor cur = session.Query(kFig3Text, options);
  ASSERT_TRUE(cur.ok()) << cur.error();
  RowBatch batch;
  ASSERT_TRUE(cur.Next(&batch));  // leave the cursor partially read
  // Reassigning must finalize the replaced query first — its engine (and
  // the executor the keepalive owns) go away together, and the fresh
  // cursor streams the full answer.
  cur = session.Query(kFig3Text, options);
  ASSERT_TRUE(cur.ok()) << cur.error();
  Table streamed = cur.ToTable();
  EXPECT_TRUE(cur.finished());
  EXPECT_FALSE(streamed.rows.empty());

  const QueryRun run = session.Run(kFig3Text, options);
  ASSERT_TRUE(run.ok()) << run.error();
  EXPECT_EQ(Keys(streamed), Keys(run.answer));
}

TEST_F(ResultCursorTest, FinishWithoutReading) {
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  const QueryRun run = session.Run(kFig3Text, options);
  ASSERT_TRUE(run.ok()) << run.error();

  ResultCursor cur = session.Query(kFig3Text, options);
  ASSERT_TRUE(cur.ok()) << cur.error();
  cur.Finish();  // drain internally so accounting covers the whole query
  EXPECT_TRUE(cur.finished());
  EXPECT_EQ(cur.counters().rows_produced, run.counters.rows_produced);
  EXPECT_EQ(cur.measured_cost(), run.measured_cost);
}

}  // namespace
}  // namespace rodin
