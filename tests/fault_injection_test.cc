// Fault injection (RODIN_FAULTS / FaultInjector): config parsing, the
// forced-deadline hooks, and the headline robustness guarantee — a run that
// hits an injected transient fault retries and finishes with an answer,
// counters and measured cost bit-identical to a run that never faulted.
//
// The injector is process-global, so every test configures it explicitly in
// SetUp and disables it again in TearDown: nothing here depends on (or
// leaks into) the RODIN_FAULTS environment of the surrounding ctest run.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

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

std::vector<std::string> Keys(const Table& t) {
  std::vector<std::string> out;
  for (const Row& row : t.rows) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    out.push_back(std::move(key));
  }
  return out;
}

void ExpectSameCounters(const ExecCounters& a, const ExecCounters& b) {
  EXPECT_EQ(a.predicate_evals, b.predicate_evals);
  EXPECT_EQ(a.method_calls, b.method_calls);
  EXPECT_EQ(a.method_cost, b.method_cost);
  EXPECT_EQ(a.rows_produced, b.rows_produced);
  EXPECT_EQ(a.fix_iterations, b.fix_iterations);
}

GeneratedDb MakeDb() {
  MusicConfig config;
  config.num_composers = 40;
  config.lineage_depth = 8;
  return GenerateMusicDb(config, PaperMusicPhysical());
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Configure(FaultConfig{});  // disabled
    g_ = MakeDb();
  }
  void TearDown() override {
    FaultInjector::Global().Configure(FaultConfig{});
  }
  GeneratedDb g_;
};

TEST_F(FaultInjectionTest, ParseEnvValueGrammar) {
  auto parse = [](const std::string& value) {
    FaultConfig config;
    const Status status = FaultInjector::ParseEnvValue(value, &config);
    EXPECT_TRUE(status.ok()) << value << ": " << status.ToString();
    return config;
  };
  EXPECT_FALSE(parse("").enabled);
  EXPECT_FALSE(parse("0").enabled);

  const FaultConfig defaults = parse("1");
  EXPECT_TRUE(defaults.enabled);
  EXPECT_DOUBLE_EQ(defaults.page_fetch_fail, 0.01);
  EXPECT_DOUBLE_EQ(defaults.alloc_fail, 0.005);
  EXPECT_EQ(defaults.max_faults, 0u);
  EXPECT_EQ(defaults.force_deadline_stage, -1);
  EXPECT_EQ(defaults.force_deadline_fix_iter, -1);

  const FaultConfig custom =
      parse("page_fetch=0.5,alloc=0.25,seed=7,max=3,stage=2,fix_iter=4");
  EXPECT_TRUE(custom.enabled);
  EXPECT_DOUBLE_EQ(custom.page_fetch_fail, 0.5);
  EXPECT_DOUBLE_EQ(custom.alloc_fail, 0.25);
  EXPECT_EQ(custom.seed, 7u);
  EXPECT_EQ(custom.max_faults, 3u);
  EXPECT_EQ(custom.force_deadline_stage, 2);
  EXPECT_EQ(custom.force_deadline_fix_iter, 4);
  EXPECT_EQ(parse("stage=-1").force_deadline_stage, -1);

  // Every malformed item is refused, naming the item, and leaves the
  // caller's config untouched — a typo must not silently mean "enabled
  // with the defaults" or "unlimited".
  for (const std::string bad :
       {"page_fech=0.5", "max=abc", "page_fetch=0.5,max=abc", "seed=-3",
        "max=-1", "max= -1", "alloc=", "alloc", "stage=2x",
        "fix_iter=99999999999", "page_fetch=1e999", "seed=7,,max=3", "2"}) {
    FaultConfig config;
    config.seed = 99;
    const Status status = FaultInjector::ParseEnvValue(bad, &config);
    EXPECT_EQ(status.code, Status::Code::kInvalidArgument) << bad;
    EXPECT_NE(status.message.find("bad item"), std::string::npos) << bad;
    EXPECT_FALSE(config.enabled) << bad;
    EXPECT_EQ(config.seed, 99u) << bad;
  }
  FaultConfig config;
  EXPECT_NE(FaultInjector::ParseEnvValue("seed=1,page_fech=0.5", &config)
                .message.find("'page_fech=0.5'"),
            std::string::npos);
  // Read from the environment, a malformed value stops the process with
  // that message instead of running with a configuration nobody asked for.
  EXPECT_DEATH(
      {
        setenv("RODIN_FAULTS", "seed=3,max=abc", 1);
        FaultInjector::Global().ConfigureFromEnv();
      },
      "bad item 'max=abc'");
}

TEST_F(FaultInjectionTest, RetriedPageFetchFaultIsBitIdenticalToCleanRun) {
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  const QueryRun clean = session.Run(kFig3Text, options);
  ASSERT_TRUE(clean.ok()) << clean.error();

  // Exactly one guaranteed fault, then the cap stops injection: the first
  // attempt aborts with kFault, the retry runs clean, and nothing about the
  // surviving attempt may differ from a run that never faulted.
  FaultConfig fc;
  fc.enabled = true;
  fc.page_fetch_fail = 1.0;
  fc.alloc_fail = 0;
  fc.max_faults = 1;
  FaultInjector::Global().Configure(fc);

  const QueryRun retried = session.Run(kFig3Text, options);
  ASSERT_TRUE(retried.ok()) << retried.status.ToString();
  EXPECT_EQ(FaultInjector::Global().faults_injected(), 1u);
  EXPECT_EQ(retried.plan_text, clean.plan_text);
  EXPECT_EQ(Keys(retried.answer), Keys(clean.answer));
  ExpectSameCounters(retried.counters, clean.counters);
  EXPECT_EQ(retried.measured_cost, clean.measured_cost);
}

TEST_F(FaultInjectionTest, RetriedFaultMatchesTheReferenceEvaluator) {
  // Same headline guarantee against the interpreting reference: the faulted
  // attempt's partial work is discarded and the surviving compiled retry
  // matches a cold run of the reference evaluator (interpreted
  // expressions, by-name navigation) on the plan the session chose, bit
  // for bit — the retry path reuses the same chunks and the same
  // deferred-charge replay, so nothing about the evaluator may leak into
  // the accounting.
  FaultConfig fc;
  fc.enabled = true;
  fc.page_fetch_fail = 1.0;
  fc.alloc_fail = 0;
  fc.max_faults = 1;
  FaultInjector::Global().Configure(fc);

  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  const QueryRun retried = session.Run(kFig3Text, options);
  ASSERT_TRUE(retried.ok()) << retried.status.ToString();
  EXPECT_EQ(FaultInjector::Global().faults_injected(), 1u);

  ReferenceExecutor reference(g_.db.get());
  reference.ResetMeasurement(/*clear_buffer=*/true);
  const Table want = reference.Execute(*retried.optimized.plan);
  EXPECT_EQ(Keys(retried.answer), Keys(want));
  ExpectSameCounters(retried.counters, reference.counters());
  EXPECT_EQ(retried.measured_cost, reference.MeasuredCost());
}

TEST_F(FaultInjectionTest, RetriedAllocFaultUnderCompiledEvalIsBitIdentical) {
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  const QueryRun clean = session.Run(kFig3Text, options);
  ASSERT_TRUE(clean.ok()) << clean.error();

  FaultConfig fc;
  fc.enabled = true;
  fc.page_fetch_fail = 0;
  fc.alloc_fail = 1.0;
  fc.max_faults = 1;
  FaultInjector::Global().Configure(fc);

  const QueryRun retried = session.Run(kFig3Text, options);
  ASSERT_TRUE(retried.ok()) << retried.status.ToString();
  EXPECT_EQ(FaultInjector::Global().faults_injected(), 1u);
  EXPECT_EQ(Keys(retried.answer), Keys(clean.answer));
  ExpectSameCounters(retried.counters, clean.counters);
  EXPECT_EQ(retried.measured_cost, clean.measured_cost);
}

TEST_F(FaultInjectionTest, RetriedAllocFaultIsBitIdenticalToCleanRun) {
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  const QueryRun clean = session.Run(kFig3Text, options);
  ASSERT_TRUE(clean.ok()) << clean.error();

  FaultConfig fc;
  fc.enabled = true;
  fc.page_fetch_fail = 0;
  fc.alloc_fail = 1.0;
  fc.max_faults = 1;
  FaultInjector::Global().Configure(fc);

  const QueryRun retried = session.Run(kFig3Text, options);
  ASSERT_TRUE(retried.ok()) << retried.status.ToString();
  EXPECT_EQ(FaultInjector::Global().faults_injected(), 1u);
  EXPECT_EQ(Keys(retried.answer), Keys(clean.answer));
  ExpectSameCounters(retried.counters, clean.counters);
  EXPECT_EQ(retried.measured_cost, clean.measured_cost);
}

TEST_F(FaultInjectionTest, WarmRunRetryRestoresResidentSet) {
  // Two identical databases: prime both pools with the same run, then
  // measure a warm run on each — one clean, one with a forced fault. The
  // retry restores the pre-attempt resident set, so the warm hit/miss
  // pattern (and with it the measured cost) is attempt-invariant.
  GeneratedDb g2 = MakeDb();
  Session s1(g_.db.get());
  Session s2(g2.db.get());
  QueryOptions prime;
  prime.cold = true;
  ASSERT_TRUE(s1.Run(kFig3Text, prime).ok());
  ASSERT_TRUE(s2.Run(kFig3Text, prime).ok());

  QueryOptions warm;  // cold = false: resident pages carry over
  const QueryRun clean = s1.Run(kFig3Text, warm);
  ASSERT_TRUE(clean.ok()) << clean.error();

  FaultConfig fc;
  fc.enabled = true;
  fc.page_fetch_fail = 1.0;
  fc.alloc_fail = 0;
  fc.max_faults = 1;
  FaultInjector::Global().Configure(fc);

  const QueryRun retried = s2.Run(kFig3Text, warm);
  ASSERT_TRUE(retried.ok()) << retried.status.ToString();
  EXPECT_EQ(FaultInjector::Global().faults_injected(), 1u);
  EXPECT_EQ(Keys(retried.answer), Keys(clean.answer));
  ExpectSameCounters(retried.counters, clean.counters);
  EXPECT_EQ(retried.measured_cost, clean.measured_cost);
}

TEST_F(FaultInjectionTest, ForcedDeadlineAtEarlyStageFailsTheRun) {
  FaultConfig fc;
  fc.enabled = true;
  fc.page_fetch_fail = 0;
  fc.alloc_fail = 0;
  fc.force_deadline_stage = 2;
  FaultInjector::Global().Configure(fc);

  Session session(g_.db.get());
  const QueryRun run = session.Run(kFig3Text, {});
  ASSERT_FALSE(run.ok());
  // Stages 1-3 are all-or-nothing: no plan exists yet, so a forced budget
  // trip there is a hard kDeadlineExceeded, never retried (not a kFault).
  EXPECT_EQ(run.status.code, Status::Code::kDeadlineExceeded);
  EXPECT_TRUE(run.answer.rows.empty());
}

TEST_F(FaultInjectionTest, ForcedDeadlineAtStageFourDegradesToAnytimePlan) {
  FaultConfig fc;
  fc.enabled = true;
  fc.page_fetch_fail = 0;
  fc.alloc_fail = 0;
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
  fc.enabled = true;
  fc.page_fetch_fail = 0;
  fc.alloc_fail = 0;
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
  // The abort happened mid-fixpoint: at least one iteration ran first.
  EXPECT_GE(run.counters.fix_iterations, 1u);
}

TEST_F(FaultInjectionTest, RetriedRunsNeverTouchThePlanCache) {
  // With the injector enabled the session bypasses its plan cache — no
  // lookups, no inserts — so the cache-hit rate on retried attempts is 0%
  // by construction. This is the programmatic form of the RODIN_FAULTS=1
  // CI assertion.
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;

  FaultConfig fc;
  fc.enabled = true;
  fc.page_fetch_fail = 1.0;
  fc.alloc_fail = 0;
  fc.max_faults = 1;
  FaultInjector::Global().Configure(fc);

  const QueryRun first = session.Run(kFig3Text, options);
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  EXPECT_EQ(FaultInjector::Global().faults_injected(), 1u);

  // Re-arm and run the identical query again: still no cache traffic.
  FaultInjector::Global().Configure(fc);
  const QueryRun second = session.Run(kFig3Text, options);
  ASSERT_TRUE(second.ok()) << second.status.ToString();
  EXPECT_FALSE(first.plan_cached);
  EXPECT_FALSE(second.plan_cached);
  const PlanCacheStats stats = session.plan_cache().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(session.plan_cache().size(), 0u);
}

TEST_F(FaultInjectionTest, RetryRefusedWhileStreamingCursorIsLive) {
  // The retry path snapshots/restores the buffer pool's resident set; a
  // live cursor's deferred charge replay must never interleave with that
  // (BufferPool's debug guard aborts on the race). The session enforces it
  // at the API boundary: with the injector enabled, Run/Explain refuse
  // while this session has un-finalized streaming cursors. This test runs
  // under TSan in CI — the refusal means there is no snapshot/replay
  // interleaving to race on.
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;

  ResultCursor cur = session.Query(kFig3Text, options);
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  RowBatch batch;
  ASSERT_TRUE(cur.Next(&batch));  // live: started but not drained
  EXPECT_EQ(session.live_streams(), 1u);

  FaultConfig fc;
  fc.enabled = true;
  fc.page_fetch_fail = 1.0;
  fc.alloc_fail = 0;
  fc.max_faults = 1;
  FaultInjector::Global().Configure(fc);

  const QueryRun refused = session.Run(kFig3Text, options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status.code, Status::Code::kInvalidArgument);
  EXPECT_EQ(FaultInjector::Global().faults_injected(), 0u);

  // Draining the cursor finalizes it; the retryable path opens up again.
  cur.Finish();
  EXPECT_EQ(session.live_streams(), 0u);
  const QueryRun allowed = session.Run(kFig3Text, options);
  ASSERT_TRUE(allowed.ok()) << allowed.status.ToString();

  // Without the injector there is no snapshot/restore, so streaming and
  // materialized runs interleave freely (as before).
  FaultInjector::Global().Configure(FaultConfig{});
  ResultCursor cur2 = session.Query(kFig3Text, options);
  ASSERT_TRUE(cur2.ok());
  ASSERT_TRUE(cur2.Next(&batch));
  EXPECT_TRUE(session.Run(kFig3Text, options).ok());
  cur2.Finish();
}

TEST_F(FaultInjectionTest, AbandonedCursorReleasesLiveStreamCount) {
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  {
    ResultCursor cur = session.Query(kFig3Text, options);
    ASSERT_TRUE(cur.ok());
    RowBatch batch;
    ASSERT_TRUE(cur.Next(&batch));
    EXPECT_EQ(session.live_streams(), 1u);
    // Dropped mid-stream: destruction finalizes the accounting.
  }
  EXPECT_EQ(session.live_streams(), 0u);
}

TEST_F(FaultInjectionTest, StreamingNeverInjects) {
  FaultConfig fc;
  fc.enabled = true;
  fc.page_fetch_fail = 1.0;  // would fault every batch if consulted
  fc.alloc_fail = 1.0;
  FaultInjector::Global().Configure(fc);

  // Streaming cursors opt out of injection (a half-consumed stream cannot
  // be transparently retried), so even a certain-fault config is inert.
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  ResultCursor cur = session.Query(kFig3Text, options);
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  const Table streamed = cur.ToTable();
  EXPECT_TRUE(cur.ok()) << cur.status().ToString();
  EXPECT_FALSE(streamed.rows.empty());
  EXPECT_EQ(FaultInjector::Global().faults_injected(), 0u);
}

}  // namespace
}  // namespace rodin
