// Forced deadlines (FaultConfig / FaultInjector): the test seam that trips
// a deadline at an exact optimizer stage or semi-naive iteration. Stages
// 1-3 fail the run, stage 4 degrades to an anytime plan, and a forced
// deadline inside the fixpoint aborts with exact partial counters.
//
// The seam is process-global, so every test resets it in TearDown.

#include <gtest/gtest.h>

#include <string>

#include "api/session.h"
#include "common/faults.h"
#include "datagen/music_gen.h"
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

GeneratedDb MakeDb() {
  MusicConfig config;
  config.num_composers = 40;
  config.lineage_depth = 8;
  return GenerateMusicDb(config, PaperMusicPhysical());
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { g_ = MakeDb(); }
  void TearDown() override { FaultInjector::Global().Configure(FaultConfig{}); }
  GeneratedDb g_;
};

TEST_F(FaultInjectionTest, ForcedDeadlineAtEarlyStageFailsTheRun) {
  FaultConfig fc;
  fc.force_deadline_stage = 2;
  FaultInjector::Global().Configure(fc);

  Session session(g_.db.get());
  const QueryRun run = session.Run(kFig3Text, {});
  ASSERT_FALSE(run.ok());
  // Stages 1-3 are all-or-nothing: no plan exists yet, so a forced budget
  // trip there is a hard kDeadlineExceeded.
  EXPECT_EQ(run.status.code, Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(run.answer.rows.empty());
}

TEST_F(FaultInjectionTest, ForcedDeadlineAtStageFourDegradesToAnytimePlan) {
  FaultConfig fc;
  fc.force_deadline_stage = 4;
  FaultInjector::Global().Configure(fc);

  // At the transformPT boundary a costed plan already exists, so the forced
  // deadline degrades to an anytime truncation instead of an error, and
  // EXPLAIN renders the stage-report flag.
  Session session(g_.db.get());
  QueryOptions options;
  options.explain_only = true;
  const ExplainResult ex = session.Explain(kFig3Text, options);
  ASSERT_TRUE(ex.ok()) << ex.status.ToString();
  ASSERT_FALSE(ex.stages.empty());
  EXPECT_TRUE(ex.stages.back().truncated);
  EXPECT_NE(ex.ToString().find("[truncated: budget hit]"), std::string::npos);
}

TEST_F(FaultInjectionTest, ForcedDeadlineInsideSemiNaiveFixpoint) {
  FaultConfig fc;
  fc.force_deadline_fix_iter = 2;
  FaultInjector::Global().Configure(fc);

  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  const QueryRun run = session.Run(kFig3Text, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status.code, Status::Code::kDeadlineExceeded)
      << run.status.ToString();
  EXPECT_TRUE(run.answer.rows.empty());
  // The abort happened mid-fixpoint: exactly the first iteration ran.
  EXPECT_EQ(run.counters.fix_iterations, 1u);

  // The seam is consulted on every execution path: a streaming cursor
  // aborts at the same iteration with the same partial accounting.
  ResultCursor cursor = session.Query(kFig3Text, options);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_TRUE(cursor.ToTable().rows.empty());
  EXPECT_EQ(cursor.status().code, Status::Code::kDeadlineExceeded);
  ExpectSameCounters(cursor.counters(), run.counters);
  EXPECT_EQ(cursor.measured_cost(), run.measured_cost);
}

}  // namespace
}  // namespace rodin
