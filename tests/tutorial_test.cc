// Executable version of docs/TUTORIAL.md: if this test fails, the tutorial
// is lying. Keep the two in sync.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/session.h"
#include "common/faults.h"
#include "exec/executor.h"
#include "server/client.h"
#include "server/server.h"
#include "cost/fig7.h"
#include "optimizer/baseline.h"
#include "query/parser.h"
#include "support/reference_exec.h"

namespace rodin {
namespace {

class TutorialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TypePool& t = schema_.types();
    ClassDef* pkg = schema_.AddClass("Package");
    schema_.AddAttribute(pkg, {"pname", t.String(), false, 0, "", ""});
    schema_.AddAttribute(pkg, {"license", t.String(), false, 0, "", ""});
    schema_.AddAttribute(pkg, {"kloc", t.Int(), false, 0, "", ""});
    schema_.AddAttribute(
        pkg, {"deps", t.Set(t.Object("Package")), false, 0, "", ""});
    schema_.AddAttribute(pkg, {"risk_score", t.Int(), true, 4.0, "", ""});

    db_ = std::make_unique<Database>(&schema_);
    std::vector<Oid> pkgs;
    for (int i = 0; i < 500; ++i) {
      Oid p = db_->NewObject("Package");
      db_->Set(p, "pname", Value::Str("pkg" + std::to_string(i)));
      db_->Set(p, "license", Value::Str(i % 7 == 0 ? "GPL" : "MIT"));
      db_->Set(p, "kloc", Value::Int(1 + i % 90));
      pkgs.push_back(p);
    }
    for (int i = 1; i < 500; ++i) {
      std::vector<Value> deps;
      for (int d = 1; d <= 3 && i - d * 7 >= 0; ++d) {
        deps.push_back(Value::Ref(pkgs[i - d * 7]));
      }
      db_->Set(pkgs[i], "deps", Value::MakeSet(std::move(deps)));
    }
    db_->RegisterMethod("Package", "risk_score", [](const Database& d, Oid o) {
      return Value::Int(d.GetRaw(o, "kloc").AsInt() / 10);
    });

    PhysicalConfig physical;
    physical.buffer_pages = 64;
    physical.sel_indexes.push_back(SelIndexSpec{"Package", "pname"});
    physical.path_indexes.push_back(PathIndexSpec{"Package", {"deps"}});
    db_->Finalize(physical);
  }

  static constexpr const char* kQuery = R"(
relation DependsOn includes
  (select [root: x, dep: d, lvl: 1] from x in Package, d in x.deps)
  union
  (select [root: r.root, dep: d2, lvl: r.lvl + 1]
   from r in DependsOn, d2 in r.dep.deps)

select [n: r.root.pname] from r in DependsOn
where r.dep.license = "GPL" and r.dep.kloc > 50
)";

  Schema schema_;
  std::unique_ptr<Database> db_;
};

TEST_F(TutorialTest, TheTutorialQueryRuns) {
  Session session(db_.get());
  const QueryRun run = session.Run(kQuery, QueryOptions{.cold = true});
  ASSERT_TRUE(run.ok()) << run.error();
  EXPECT_FALSE(run.answer.rows.empty());
  EXPECT_GT(run.measured_cost, 0);
  EXPECT_FALSE(run.plan_text.empty());
  EXPECT_GE(run.optimized.unpushed_variant_cost, 0);
}

TEST_F(TutorialTest, AllConfigurationsAgreeOnTheTutorialQuery) {
  const ParseResult parsed = ParseQuery(kQuery, schema_);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  std::vector<Table> answers;
  for (OptimizerOptions options :
       {CostBasedOptions(), DeductiveOptions(), NaiveOptions()}) {
    Session session(db_.get(), options);
    QueryRun run = session.Run(parsed.graph);
    ASSERT_TRUE(run.ok()) << run.error();
    run.answer.Dedup();
    answers.push_back(std::move(run.answer));
  }
  EXPECT_EQ(answers[0].rows, answers[1].rows);
  EXPECT_EQ(answers[0].rows, answers[2].rows);
}

TEST_F(TutorialTest, SymbolicTableDerivesForTheTutorialPlan) {
  Session session(db_.get());
  const ParseResult parsed = ParseQuery(kQuery, schema_);
  ASSERT_TRUE(parsed.ok());
  OptimizeResult plan = session.Optimize(parsed.graph);
  ASSERT_TRUE(plan.ok());
  int t = 0;
  const SymbolicCostTable table =
      DeriveSymbolicCosts(*plan.plan, *db_, {{"Package", "Pkg"}}, &t);
  EXPECT_FALSE(table.rows.empty());
  EXPECT_GT(table.EvalTotal(), 0);
}

TEST_F(TutorialTest, StreamingSectionWorksAsWritten) {
  // Mirrors "Streaming results and parallel execution": Query() with
  // exec_threads serves the same answer and accounting as Run().
  Session session(db_.get());
  const QueryRun run = session.Run(kQuery, QueryOptions{.cold = true});
  ASSERT_TRUE(run.ok()) << run.error();

  QueryOptions ro;
  ro.cold = true;
  ro.exec_threads = 4;
  ro.batch_rows = 1024;
  ResultCursor cur = session.Query(kQuery, ro);
  ASSERT_TRUE(cur.ok()) << cur.error();
  size_t rows = 0;
  RowBatch batch;
  while (cur.Next(&batch)) rows += batch.size();
  EXPECT_EQ(rows, run.answer.rows.size());
  EXPECT_EQ(cur.measured_cost(), run.measured_cost);
  EXPECT_EQ(cur.counters().predicate_evals, run.counters.predicate_evals);

  Table all = session.Query(kQuery, ro).ToTable();
  EXPECT_EQ(all.rows.size(), run.answer.rows.size());
}

TEST_F(TutorialTest, CompiledEvalSectionWorksAsWritten) {
  // Mirrors "Compiled expression evaluation": the compiled run and the
  // test suite's interpreting reference evaluator, run on the same plan,
  // give the same rows and bit-identical accounting, and EXPLAIN ends with
  // the disassembly block.
  Session session(db_.get());
  QueryOptions ro;
  ro.cold = true;
  const QueryRun compiled = session.Run(kQuery, ro);
  ASSERT_TRUE(compiled.ok()) << compiled.error();

  ReferenceExecutor reference(db_.get());
  reference.ResetMeasurement(/*clear_buffer=*/true);
  const Table interpreted = reference.Execute(*compiled.optimized.plan);

  EXPECT_EQ(compiled.answer.rows, interpreted.rows);
  EXPECT_EQ(compiled.measured_cost, reference.MeasuredCost());
  EXPECT_EQ(compiled.counters.predicate_evals,
            reference.counters().predicate_evals);
  EXPECT_EQ(compiled.counters.method_calls, reference.counters().method_calls);
  EXPECT_EQ(compiled.counters.method_cost, reference.counters().method_cost);

  QueryOptions ex;
  ex.cold = true;
  const ExplainResult report = session.Explain(kQuery, ex);
  ASSERT_TRUE(report.ok()) << report.status.ToString();
  EXPECT_NE(report.ToString().find("bytecode (compiled eval):"),
            std::string::npos);
}

TEST_F(TutorialTest, PreparedQueriesSectionWorksAsWritten) {
  // Mirrors "Prepared queries and the plan cache". An enabled fault
  // injector bypasses the cache by design (docs/ROBUSTNESS.md), so pin it
  // off for the cache-hit assertions and restore the env config after.
  FaultInjector::Global().Configure(FaultConfig{});

  Session session(db_.get());
  PreparedQuery pq = session.Prepare(kQuery);
  ASSERT_TRUE(pq.ok()) << pq.status().message;

  // Cold runs so the accounting identity is exact — a warm second run
  // starts from the pool the first one heated, which (correctly) changes
  // hit/miss counts and the measured cost, cached plan or not.
  const QueryRun first = pq.Run({.cold = true});
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_FALSE(first.plan_cached);
  const QueryRun second = pq.Run({.cold = true});
  ASSERT_TRUE(second.ok()) << second.error();
  if (PlanCacheEnabledByEnv()) EXPECT_TRUE(second.plan_cached);
  EXPECT_EQ(second.answer.rows, first.answer.rows);
  EXPECT_EQ(second.measured_cost, first.measured_cost);

  // An explicit zero knob is a typed error, not an "inherit" sentinel...
  QueryOptions zero;
  zero.exec_threads = 0;
  EXPECT_EQ(session.Run(kQuery, zero).status.code,
            Status::Code::kInvalidArgument);
  // ...and collect_trace is rejected on the streaming path.
  QueryOptions traced;
  traced.collect_trace = true;
  EXPECT_EQ(session.Query(kQuery, traced).status().code,
            Status::Code::kInvalidArgument);

  FaultInjector::Global().ConfigureFromEnv();
}

TEST_F(TutorialTest, BudgetsAndCancellationSectionWorksAsWritten) {
  // Mirrors "Budgets and cancellation": the QueryOptions::query knobs behave
  // as the tutorial promises.
  Session session(db_.get());

  // A generous deadline never trips and changes nothing.
  QueryOptions ro;
  ro.cold = true;
  ro.query.deadline_ms = 600000;
  // The ledger-only knob from the tutorial snippet: a budget below the
  // fixpoint's ~71-page temp working set, so the over-budget tail spills
  // to disk and the run completes, with the pool unclamped as documented.
  ro.query.spill_budget_pages = 48;
  const QueryRun run = session.Run(kQuery, ro);
  ASSERT_TRUE(run.ok()) << run.status.ToString();
  EXPECT_FALSE(run.answer.rows.empty());

  // Opting out of spilling restores the typed hard failure, with the
  // tripping operator and page arithmetic packed into the detail.
  QueryOptions off = ro;
  off.query.spill = false;
  const QueryRun refused = session.Run(kQuery, off);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status.code, Status::Code::kResourceExhausted)
      << refused.status.ToString();
  EXPECT_GT(ResourceDetailRequested(refused.status.detail),
            ResourceDetailRemaining(refused.status.detail));

  // Cancellation mid-stream: a shared-flag token copy stops the cursor.
  QueryOptions streaming;
  streaming.cold = true;
  streaming.batch_rows = 1;
  CancelToken token = streaming.query.cancel;
  ResultCursor cur = session.Query(kQuery, streaming);
  ASSERT_TRUE(cur.ok()) << cur.status().ToString();
  RowBatch batch;
  ASSERT_TRUE(cur.Next(&batch));
  token.RequestCancel();
  while (cur.Next(&batch)) {
  }
  EXPECT_EQ(cur.status().code, Status::Code::kCancelled);
}

TEST(TutorialServerTest, ServingTrafficSectionWorksAsWritten) {
  // Mirrors "Serving traffic": the three-line in-process server from the
  // tutorial, verbatim — EngineHandle -> Server on an ephemeral port ->
  // Client round-trip with QueryOptions travelling the wire.
  EngineOptions eo;
  eo.size = 40;
  Status status;
  auto engine = EngineHandle::Create(eo, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();

  server::ServerOptions so;
  so.port = 0;
  auto srv = server::Server::Start(engine.get(), so, &status);
  ASSERT_NE(srv, nullptr) << status.ToString();

  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());

  QueryOptions qo;
  qo.query.deadline_ms = 1000;
  server::ClientResult r = client.Query(
      R"(select [n: x.name] from x in Composer where x.name = "Bach")", qo);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  ASSERT_EQ(r.columns, std::vector<std::string>{"n"});
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsString(), "Bach");
  EXPECT_GE(r.measured_cost, 0);
  client.Goodbye();
}

TEST_F(TutorialTest, MutatingDataSectionWorksAsWritten) {
  // Mirrors "Mutating data": the one-shot Mutate from the tutorial, its
  // CommitResult claims, the single-writer conflict and the all-or-nothing
  // referential-integrity refusal.
  Session session(db_.get());
  ASSERT_TRUE(session.Materialize({"depends", "Package", "", "deps"}).ok());

  MutationBatch batch;
  batch.Insert("Package", {{"pname", Value::Str("leftpad")},
                           {"license", Value::Str("MIT")},
                           {"kloc", Value::Int(1)}});
  batch.Update("Package", db_->PayloadToOid("Package", 10),
               {{"deps", Value::MakeSet({Value::Ref(
                             db_->PayloadToOid("Package", 5))})}});
  const CommitResult r = session.Mutate(batch);
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.ops_applied, 2u);
  EXPECT_EQ(r.stats_version, 2u);
  EXPECT_EQ(r.views_maintained, 1u);
  EXPECT_TRUE(r.used_incremental);

  // The commit is immediately visible to queries on this database...
  const QueryRun run = session.Run(
      R"(select [n: x.pname] from x in Package where x.pname = "leftpad")");
  ASSERT_TRUE(run.ok()) << run.error();
  EXPECT_EQ(run.answer.rows.size(), 1u);

  // ...and the maintained closure contains the rewired edge.
  std::vector<std::pair<Oid, Oid>> pairs;
  ASSERT_TRUE(session.MaterializedRows("depends", &pairs).ok());
  const std::pair<Oid, Oid> edge{db_->PayloadToOid("Package", 10),
                                 db_->PayloadToOid("Package", 5)};
  EXPECT_NE(std::find(pairs.begin(), pairs.end(), edge), pairs.end());

  // Single-writer: a second open transaction is a retryable kConflict.
  Session rival(db_.get());
  uint64_t mine = 0, theirs = 0;
  ASSERT_TRUE(session.Begin(&mine).ok());
  const Status refused = rival.Begin(&theirs);
  EXPECT_EQ(refused.code, Status::Code::kConflict);
  EXPECT_TRUE(refused.retryable());
  ASSERT_TRUE(session.Rollback(mine).ok());

  // Deleting a package that others still depend on refuses the whole
  // batch and leaves the database untouched.
  MutationBatch bad;
  bad.Delete("Package", db_->PayloadToOid("Package", 3));
  EXPECT_EQ(session.Mutate(bad).status.code, Status::Code::kInvalidArgument);
  const QueryRun still = session.Run(
      R"(select [n: x.pname] from x in Package where x.pname = "pkg3")");
  ASSERT_TRUE(still.ok()) << still.error();
  EXPECT_EQ(still.answer.rows.size(), 1u);
}

TEST_F(TutorialTest, AdaptiveFeedbackSectionWorksAsWritten) {
  if (FaultInjector::Global().enabled()) {
    GTEST_SKIP() << "faulted runs never feed back, as the section says";
  }
  Session session(db_.get());
  QueryOptions fb;
  fb.feedback.enabled = true;

  const QueryRun first = session.Run(kQuery, fb);
  ASSERT_TRUE(first.ok()) << first.error();
  const FeedbackStats harvested = session.feedback_registry().stats();
  EXPECT_GT(harvested.observations, 0u);

  const QueryRun later = session.Run(kQuery, fb);
  ASSERT_TRUE(later.ok()) << later.error();
  // Feedback never changes results, only plans.
  EXPECT_EQ(first.answer.rows, later.answer.rows);
  EXPECT_GT(session.feedback_registry().stats().observations,
            harvested.observations);

  // The est-vs-measured table the section points at.
  const ExplainResult ex = session.Explain(kQuery, fb);
  ASSERT_TRUE(ex.ok()) << ex.status.ToString();
  EXPECT_FALSE(ex.node_stats().empty());
}

TEST_F(TutorialTest, MethodPredicateWorks) {
  Session session(db_.get());
  const QueryRun run = session.Run(
      R"(select [n: x.pname] from x in Package where x.risk_score > 8)");
  ASSERT_TRUE(run.ok()) << run.error();
  // kloc in [1,90] -> risk in [0,9]: only kloc > 80 qualifies.
  EXPECT_FALSE(run.answer.rows.empty());
  EXPECT_GT(run.counters.method_calls, 0u);
}

}  // namespace
}  // namespace rodin
