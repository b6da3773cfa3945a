// Session facade tests: textual queries end to end, error propagation, and
// the symbolic Figure-7 walker.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/plan_cache.h"
#include "api/session.h"
#include "cost/fig7.h"
#include "datagen/music_gen.h"
#include "exec/executor.h"
#include "obs/config.h"
#include "obs/trace.h"
#include "optimizer/baseline.h"
#include "query/paper_queries.h"
#include "storage/buffer_pool.h"
#include "support/query_paths.h"
#include "support/reference_exec.h"

namespace rodin {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MusicConfig config;
    config.num_composers = 40;
    config.lineage_depth = 8;
    g_ = GenerateMusicDb(config, PaperMusicPhysical());
  }
  GeneratedDb g_;
};

TEST_F(SessionTest, RunEndToEnd) {
  Session session(g_.db.get());
  const QueryRun run = session.Run(
      R"(select [n: x.name] from x in Composer where x.name = "Bach")");
  ASSERT_TRUE(run.ok()) << run.error();
  ASSERT_EQ(run.answer.rows.size(), 1u);
  EXPECT_EQ(run.answer.rows[0][0].AsString(), "Bach");
  EXPECT_FALSE(run.plan_text.empty());
  EXPECT_GE(run.measured_cost, 0);
}

const char kInfluencerText[] = R"(
relation Influencer includes
  (select [master: x.master, disciple: x, gen: 1] from x in Composer)
  union
  (select [master: i.master, disciple: x, gen: i.gen + 1]
   from i in Influencer, x in Composer where i.disciple = x.master)

select [n: j.disciple.name] from j in Influencer where j.gen >= 5
)";

TEST_F(SessionTest, RecursiveTextQuery) {
  Session session(g_.db.get());
  const QueryRun run =
      session.Run(kInfluencerText, QueryOptions{.cold = true});
  ASSERT_TRUE(run.ok()) << run.error();
  EXPECT_FALSE(run.answer.rows.empty());
  EXPECT_GT(run.counters.fix_iterations, 0u);
  EXPECT_GT(run.measured_cost, 0);
}

TEST_F(SessionTest, ParseErrorsSurface) {
  Session session(g_.db.get());
  const QueryRun run = session.Run("select [n x.name] from x in Composer");
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status.code, Status::Code::kParse);
  // The offending source position rides along in the status.
  EXPECT_EQ(run.status.line, 1u);
  EXPECT_GT(run.status.col, 0u);
}

TEST_F(SessionTest, SemanticErrorsSurface) {
  Session session(g_.db.get());
  const QueryRun run = session.Run("select [n: x.bogus] from x in Composer");
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status.code, Status::Code::kSemantic);
}

TEST_F(SessionTest, OptionsRespected) {
  Session never(g_.db.get(), NaiveOptions());
  Session costed(g_.db.get(), CostBasedOptions());
  const QueryGraph q = Fig3Query(*g_.schema, 4);
  const QueryRun r1 = never.Run(q);
  const QueryRun r2 = costed.Run(q);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_FALSE(r1.optimized.pushed_sel);
  Table a = r1.answer;
  Table b = r2.answer;
  a.Dedup();
  b.Dedup();
  EXPECT_EQ(a.rows, b.rows);
}

TEST_F(SessionTest, Fig7WalkerProducesPaperShapes) {
  Session session(g_.db.get(), NaiveOptions());
  OptimizeResult r = session.Optimize(Fig3Query(*g_.schema, 6));
  ASSERT_TRUE(r.ok());
  int t_counter = 0;
  const SymbolicCostTable table = DeriveSymbolicCosts(
      *r.plan, *g_.db, {{"Composer", "Cpr"}}, &t_counter);
  ASSERT_FALSE(table.rows.empty());
  // The Fix row carries the (n - 1) structure and the table evaluates to a
  // positive total consistent across repeated evaluation.
  bool has_fix_row = false;
  for (const SymbolicRow& row : table.rows) {
    EXPECT_FALSE(row.cost->ToString().empty());
    if (row.what.find("Fix(") != std::string::npos) {
      has_fix_row = true;
      EXPECT_NE(row.cost->ToString().find("n1"), std::string::npos);
      EXPECT_NE(row.cost->ToString().find("|Inf_i|"), std::string::npos);
    }
  }
  EXPECT_TRUE(has_fix_row);
  const double total = table.EvalTotal();
  EXPECT_GT(total, 0);
  EXPECT_DOUBLE_EQ(total, table.EvalTotal());
  // The env binds the paper's constants.
  EXPECT_EQ(table.env.count("pr"), 1u);
  EXPECT_EQ(table.env.count("lev"), 1u);
  // PIJ rows (when the chosen plan uses the path index) follow the paper's
  // lev + lea/||C|| form; assert it on a hand-built PIJ plan to be
  // independent of the optimizer's access-path choice.
  const PathIndex* index =
      g_.db->FindPathIndex("Composer", {"works", "instruments"});
  ASSERT_NE(index, nullptr);
  const ClassDef* composer = g_.schema->FindClass("Composer");
  PTPtr pij = MakePIJ(
      MakeEntity(EntityRef{"Composer", 0, 0}, "x", composer), "x",
      {"works", "instruments"}, {"w", "i"},
      {g_.schema->FindClass("Composition"), g_.schema->FindClass("Instrument")},
      index);
  session.cost_model().Annotate(pij.get());
  int t2 = 0;
  const SymbolicCostTable pij_table =
      DeriveSymbolicCosts(*pij, *g_.db, {{"Composer", "Cpr"}}, &t2);
  ASSERT_EQ(pij_table.rows.size(), 1u);
  EXPECT_NE(pij_table.rows[0].cost->ToString().find("lev + lea*1/||Cpr||"),
            std::string::npos);
}

TEST(QueryOptionsTest, ThreadCountsAboveTheCapAreInvalidArguments) {
  // Validate() only: a run with these counts would start that many threads
  // on the code before the cap existed.
  QueryOptions at_cap;
  at_cap.exec_threads = kMaxQueryThreads;
  at_cap.search_threads = kMaxQueryThreads;
  EXPECT_TRUE(at_cap.Validate().ok());
  for (const size_t n :
       {kMaxQueryThreads + 1, size_t{0xFFFFFFFF}, SIZE_MAX}) {
    QueryOptions exec;
    exec.exec_threads = n;
    EXPECT_EQ(exec.Validate().code, Status::Code::kInvalidArgument) << n;
    QueryOptions search;
    search.search_threads = n;
    EXPECT_EQ(search.Validate().code, Status::Code::kInvalidArgument) << n;
  }
}

TEST_F(SessionTest, ExplicitZeroKnobsAreInvalidArguments) {
  Session session(g_.db.get());
  const char* kQuery = R"(select [n: x.name] from x in Composer)";

  // Disengaged optionals inherit defaults and run fine.
  ASSERT_TRUE(session.Run(kQuery).ok());

  // An engaged 0 is taken literally and rejected with the typed code — it
  // is no longer a silent "inherit" sentinel.
  for (auto setter : {+[](QueryOptions* o) { o->exec_threads = 0; },
                      +[](QueryOptions* o) { o->batch_rows = 0; },
                      +[](QueryOptions* o) { o->search_threads = 0; }}) {
    QueryOptions options;
    setter(&options);
    const QueryRun run = session.Run(kQuery, options);
    EXPECT_FALSE(run.ok());
    EXPECT_EQ(run.status.code, Status::Code::kInvalidArgument);
    const ExplainResult ex = session.Explain(kQuery, options);
    EXPECT_EQ(ex.status.code, Status::Code::kInvalidArgument);
    ResultCursor cursor = session.Query(kQuery, options);
    EXPECT_FALSE(cursor.ok());
    EXPECT_EQ(cursor.status().code, Status::Code::kInvalidArgument);
  }

  // Seed 0 is now a reachable, legal seed (it was the inherit sentinel).
  QueryOptions seeded;
  seeded.seed = 0;
  EXPECT_TRUE(session.Run(kQuery, seeded).ok());

  // Engaged non-zero values still work.
  QueryOptions tuned;
  tuned.exec_threads = 2;
  tuned.batch_rows = 16;
  tuned.search_threads = 2;
  EXPECT_TRUE(session.Run(kQuery, tuned).ok());
}

// Run is the cursor Query returns, drained, so a traced cursor carries the
// span tree a traced Run does: optimizer stages, execute, and with feedback
// on the feedback.apply / feedback.harvest spans. Each side has its own
// session (own plan cache and feedback registry), so both optimize.
TEST_F(SessionTest, TracedCursorSpanTreeMatchesRun) {
  for (const bool feedback : {false, true}) {
    SCOPED_TRACE(feedback ? "feedback on" : "feedback off");
    QueryOptions options;
    options.cold = true;
    options.collect_trace = true;
    options.feedback.enabled = feedback;
    Session run_side(g_.db.get());
    Session query_side(g_.db.get());
    const QueryRun run = run_side.Run(kInfluencerText, options);
    ASSERT_TRUE(run.ok()) << run.error();
    ASSERT_NE(run.trace, nullptr);

    ResultCursor cursor = query_side.Query(kInfluencerText, options);
    ASSERT_TRUE(cursor.ok()) << cursor.error();
    RowBatch batch;
    ASSERT_TRUE(cursor.Next(&batch));
    EXPECT_EQ(cursor.trace(), nullptr);  // complete only once finished
    cursor.Finish();
    ASSERT_TRUE(cursor.ok()) << cursor.error();
    ASSERT_NE(cursor.trace(), nullptr);
    EXPECT_EQ(SpanTree(*cursor.trace()), SpanTree(*run.trace));

    if (!obs::kObsEnabled) continue;  // the tracer is compiled out
    for (const obs::Trace* trace : {run.trace.get(), cursor.trace().get()}) {
      EXPECT_TRUE(trace->HasSpan("transformPT"));
      EXPECT_TRUE(trace->HasSpan("execute"));
      EXPECT_EQ(trace->HasSpan("feedback.apply"), feedback);
      EXPECT_EQ(trace->HasSpan("feedback.harvest"), feedback);
    }
  }
}

// explain_only means the same on both entry points: optimize and execute
// nothing. The cursor comes back ok and already finished with Run's plan
// text, yields no rows, reports no measurement, and the buffer pool sees
// no fetch.
TEST_F(SessionTest, ExplainOnlyQueryExecutesNothing) {
  Session session(g_.db.get());
  QueryOptions plan_only;
  plan_only.explain_only = true;
  const uint64_t fetches = g_.db->buffer_pool().stats().fetches;
  const QueryRun run = session.Run(kInfluencerText, plan_only);
  ASSERT_TRUE(run.ok()) << run.error();
  EXPECT_TRUE(run.answer.rows.empty());
  EXPECT_EQ(run.measured_cost, -1);

  ResultCursor cursor = session.Query(kInfluencerText, plan_only);
  ASSERT_TRUE(cursor.ok()) << cursor.error();
  EXPECT_TRUE(cursor.finished());
  EXPECT_FALSE(cursor.plan_text().empty());
  EXPECT_EQ(cursor.plan_text(), run.plan_text);
  RowBatch batch;
  EXPECT_FALSE(cursor.Next(&batch));
  EXPECT_TRUE(batch.rows.empty());
  EXPECT_TRUE(cursor.ok());
  EXPECT_EQ(cursor.measured_cost(), -1);
  EXPECT_EQ(cursor.counters().rows_produced, 0u);
  EXPECT_EQ(cursor.counters().predicate_evals, 0u);
  EXPECT_EQ(g_.db->buffer_pool().stats().fetches, fetches);
}

TEST_F(SessionTest, EmptyClassQueriesReturnEmpty) {
  // A schema with an empty extent: queries run and return nothing.
  Schema schema;
  ClassDef* c = schema.AddClass("Empty");
  schema.AddAttribute(c, {"v", schema.types().Int(), false, 0, "", ""});
  Database db(&schema);
  db.Finalize(PhysicalConfig{});
  Session session(&db);
  const QueryRun run =
      session.Run("select [v: x.v] from x in Empty where x.v > 0");
  ASSERT_TRUE(run.ok()) << run.error();
  EXPECT_TRUE(run.answer.rows.empty());
}

// The multi-tenant embedding contract (the server's session pool relies on
// it): N threads, each with its own Session in shared-db mode, all pointed
// at ONE PlanCache over one Database. Every run must be bit-identical to a
// solo single-session run, and after the first optimization of each query
// the rest must be cache hits. Runs under TSan in CI.
TEST_F(SessionTest, ConcurrentSessionsShareOnePlanCache) {
  constexpr size_t kThreads = 6;
  constexpr size_t kRunsPerThread = 8;
  const std::vector<std::string> queries = {
      R"(select [n: x.name] from x in Composer where x.name = "Bach")",
      R"(select [n: x.name] from x in Composer)",
  };

  // Solo oracle: one private session, one run per query.
  std::vector<Table> expected;
  {
    Session solo(g_.db.get());
    for (const std::string& q : queries) {
      const QueryRun run = solo.Run(q);
      ASSERT_TRUE(run.ok()) << run.error();
      expected.push_back(run.answer);
    }
  }

  auto cache = std::make_shared<PlanCache>(/*capacity=*/16);
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Session session(g_.db.get(), OptimizerOptions{}, CostParams{}, cache);
      session.set_shared_db(true);
      // Half the tenants go through PreparedQuery, half through raw text.
      std::vector<PreparedQuery> prepared;
      if (t % 2 == 0) {
        for (const std::string& q : queries) {
          prepared.push_back(session.Prepare(q));
        }
      }
      for (size_t i = 0; i < kRunsPerThread; ++i) {
        for (size_t q = 0; q < queries.size(); ++q) {
          const QueryRun run = prepared.empty() ? session.Run(queries[q])
                                                : prepared[q].Run();
          if (!run.ok()) {
            ++failures;
            continue;
          }
          if (run.answer.rows != expected[q].rows) ++mismatches;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  const PlanCacheStats stats = cache->stats();
  const uint64_t total = kThreads * kRunsPerThread * queries.size();
  // Each query is optimized at least once; everything else must hit.
  // Concurrent first runs may race to a miss each, so the bound is
  // per-thread, not per-query.
  EXPECT_GE(stats.hits + stats.misses, total);
  EXPECT_LE(stats.misses, kThreads * queries.size());
  EXPECT_GE(stats.hits, total - kThreads * queries.size());
  EXPECT_EQ(stats.evictions, 0u);
}

// The per-query memory budget bounds only the query's temp-page ledger. The
// buffer pool that counts the paper's page I/O is shared by every session
// over a database and holds no page contents, so a budget must leave it
// alone: one tenant's budgeted run changes neither another tenant's warm
// accounting nor its own, which equals an unlimited run of its plan.
TEST(SessionBudgetTest, BudgetedTenantLeavesTheSharedPoolAlone) {
  MusicConfig config;
  config.num_composers = 60;
  config.lineage_depth = 8;
  GeneratedDb g = GenerateMusicDb(config, PaperMusicPhysical());
  BufferPool& pool = g.db->buffer_pool();
  const QueryGraph fig3 = Fig3Query(*g.schema);
  Session a(g.db.get());
  Session b(g.db.get());
  a.set_shared_db(true);
  b.set_shared_db(true);

  struct Measured {
    QueryRun run;
    uint64_t misses = 0;
    size_t resident = 0;
  };
  auto measure = [&](Session* session, const QueryOptions& options) {
    Measured out;
    const uint64_t before = pool.stats().misses;
    out.run = session->Run(fig3, options);
    out.misses = pool.stats().misses - before;
    out.resident = pool.resident_pages();
    return out;
  };
  // Warm A until the pool is full: every run leaves its fresh temp pages
  // resident, so only a full pool has a steady resident-page count.
  for (int i = 0; i < 64 && pool.resident_pages() < pool.capacity(); ++i) {
    ASSERT_TRUE(a.Run(fig3).ok());
  }
  ASSERT_EQ(pool.resident_pages(), pool.capacity());
  const Measured warm = measure(&a, QueryOptions{});
  ASSERT_TRUE(warm.run.ok()) << warm.run.error();

  const std::vector<PageId> before_b = pool.SnapshotResident();
  QueryOptions budgeted;
  budgeted.query.memory_budget_pages = 1;
  const Measured tenant_b = measure(&b, budgeted);
  ASSERT_TRUE(tenant_b.run.ok()) << tenant_b.run.error();
  // The budget also enters costing; a plan change would read as an
  // accounting difference below.
  ASSERT_EQ(tenant_b.run.optimized.plan->Fingerprint(),
            warm.run.optimized.plan->Fingerprint());

  const Measured again = measure(&a, QueryOptions{});
  ASSERT_TRUE(again.run.ok()) << again.run.error();
  EXPECT_EQ(again.run.measured_cost, warm.run.measured_cost);
  EXPECT_EQ(again.misses, warm.misses);
  EXPECT_EQ(again.resident, warm.resident);

  // B's plan from the pool state B started from, on an executor: with no
  // budget it must give B's rows, counters and cost; under B's budget its
  // spill stats (kept with observability compiled out too) show B spilled.
  struct Replayed {
    Table answer;
    ExecCounters counters;
    double measured_cost = 0;
    uint64_t spills = 0;
  };
  auto replay = [&](const QueryContext& query) {
    pool.RestoreResident(before_b);
    Executor exec(g.db.get());
    exec.ResetMeasurementShared();
    ExecOptions options;
    options.query = &query;
    Replayed out;
    EXPECT_TRUE(
        exec.ExecuteInto(*tenant_b.run.optimized.plan, options, &out.answer)
            .ok());
    out.counters = exec.counters();
    out.measured_cost = exec.MeasuredCost();
    out.spills = exec.spill_stats().spills;
    return out;
  };
  const Replayed unlimited = replay(QueryContext{});
  ASSERT_FALSE(unlimited.answer.rows.empty());
  EXPECT_EQ(tenant_b.run.answer.rows, unlimited.answer.rows);
  ExpectSameCounters(tenant_b.run.counters, unlimited.counters);
  EXPECT_EQ(tenant_b.run.measured_cost, unlimited.measured_cost);
  EXPECT_EQ(unlimited.spills, 0u);
  const Replayed forced = replay(budgeted.query);
  EXPECT_EQ(forced.answer.rows, unlimited.answer.rows);
  EXPECT_EQ(forced.measured_cost, unlimited.measured_cost);
  EXPECT_GT(forced.spills, 0u);
}

}  // namespace
}  // namespace rodin
