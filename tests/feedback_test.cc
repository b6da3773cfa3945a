// Adaptive cost feedback (src/cost/feedback.h): registry mechanics (EWMA
// residual updates, clamps, stats-version gating, bounded state, demotion
// notes), the Session wiring (corrections improve the optimizer's estimates,
// drift demotion -> re-optimize -> re-cache round-trip, the EXPLAIN drift
// line and node_stats() surface), the hygiene rules (truncated and
// cancelled runs contribute zero observations), and the headline safety
// property: feedback never changes results, only plans — rows and row order
// are bit-identical feedback-on vs feedback-off over a randomized corpus.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/plan_cache.h"
#include "api/session.h"
#include "common/faults.h"
#include "common/rng.h"
#include "cost/feedback.h"
#include "datagen/music_gen.h"
#include "query/builder.h"
#include "query/parser.h"
#include "server/client.h"
#include "server/server.h"
#include "support/random_queries.h"
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

GeneratedDb MakeMusicDb() {
  MusicConfig config;
  config.num_composers = 40;
  config.lineage_depth = 8;
  return GenerateMusicDb(config, PaperMusicPhysical());
}

std::vector<std::string> Keys(const Table& t) {
  std::vector<std::string> out;
  for (const Row& row : t.rows) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    out.push_back(std::move(key));
  }
  return out;
}

/// A synthetic harvested row (registry unit tests drive Harvest directly).
PlanNodeStats Node(std::string scope, double est_rows, uint64_t measured_rows,
                   int parent = -1, uint64_t invocations = 1) {
  PlanNodeStats n;
  n.op = scope.empty() ? "op" : scope;
  n.scope = std::move(scope);
  n.parent = parent;
  n.est_rows = est_rows;
  n.est_cost = est_rows;
  n.executed = true;
  n.measured_rows = measured_rows;
  n.invocations = invocations;
  return n;
}

// --- Registry mechanics ------------------------------------------------------

TEST(FeedbackRegistryTest, ExtentRatioDrivesEwmaResidualUpdate) {
  FeedbackRegistry reg;
  // Measured 40 vs estimated 10: ratio 4; f' = 1 * (0.5*4 + 0.5) = 2.5.
  EXPECT_EQ(reg.Harvest({Node("extent:X", 10, 40)}, /*stats_version=*/1,
                        /*alpha=*/0.5),
            1u);
  FeedbackCorrections c = reg.Snapshot(1);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_DOUBLE_EQ(c.Factor("extent:X"), 2.5);
  // Unobserved scopes stay neutral.
  EXPECT_DOUBLE_EQ(c.Factor("extent:Y"), 1.0);
  EXPECT_EQ(reg.stats().observations, 1u);
  EXPECT_EQ(reg.stats().corrections, 1u);

  // A converged estimate (ratio 1 after the correction is applied at
  // optimize time) leaves the factor alone: residual update, not absolute.
  EXPECT_EQ(reg.Harvest({Node("extent:X", 40, 40)}, 1, 0.5), 1u);
  EXPECT_DOUBLE_EQ(reg.Snapshot(1).Factor("extent:X"), 2.5);
}

TEST(FeedbackRegistryTest, FactorsAndObservedRatiosAreClamped) {
  FeedbackRegistry reg;
  // Ratio 1000 clamps to kMaxObservedRatio (64) per harvest; repeated
  // harvests then saturate the factor at kMaxFactor.
  for (int i = 0; i < 4; ++i) {
    reg.Harvest({Node("extent:X", 1, 1000)}, 1, 0.5);
  }
  EXPECT_DOUBLE_EQ(reg.Snapshot(1).Factor("extent:X"),
                   FeedbackRegistry::kMaxFactor);
  // And the under-estimate direction saturates at kMinFactor.
  for (int i = 0; i < 8; ++i) {
    reg.Harvest({Node("extent:Y", 100000, 1)}, 1, 0.5);
  }
  EXPECT_DOUBLE_EQ(reg.Snapshot(1).Factor("extent:Y"),
                   FeedbackRegistry::kMinFactor);
}

TEST(FeedbackRegistryTest, LocalRatioDividesOutTheInputsOwnError) {
  FeedbackRegistry reg;
  // Sel over an extent whose own estimate is perfect: the selection kept
  // 20 of 10-estimated... i.e. est selectivity 5/10, measured 20/10 -> the
  // sel scope is charged ratio 4, the extent ratio 1.
  std::vector<PlanNodeStats> run;
  run.push_back(Node("sel:extent:X:p", /*est=*/5, /*measured=*/20));
  run.push_back(Node("extent:X", /*est=*/10, /*measured=*/10, /*parent=*/0));
  EXPECT_EQ(reg.Harvest(run, 1, 0.5), 2u);
  FeedbackCorrections c = reg.Snapshot(1);
  EXPECT_DOUBLE_EQ(c.Factor("sel:extent:X:p"), 2.5);
  EXPECT_DOUBLE_EQ(c.Factor("extent:X"), 1.0);

  // Join form: two children, selectivity = out / (l * r).
  FeedbackRegistry reg2;
  std::vector<PlanNodeStats> jrun;
  jrun.push_back(Node("join:p", /*est=*/25, /*measured=*/100));  // sel err 4x
  jrun.push_back(Node("extent:L", 10, 10, /*parent=*/0));
  jrun.push_back(Node("extent:R", 10, 10, /*parent=*/0));
  EXPECT_EQ(reg2.Harvest(jrun, 1, 0.5), 3u);
  EXPECT_DOUBLE_EQ(reg2.Snapshot(1).Factor("join:p"), 2.5);
}

TEST(FeedbackRegistryTest, StatsVersionGatesHarvestAndSnapshot) {
  FeedbackRegistry reg;
  ASSERT_EQ(reg.Harvest({Node("extent:X", 10, 40)}, /*stats_version=*/3, 0.5),
            1u);
  EXPECT_EQ(reg.Snapshot(3).size(), 1u);
  // A snapshot under any other version is empty: corrections never survive
  // a stats refresh in either direction.
  EXPECT_TRUE(reg.Snapshot(2).empty());
  EXPECT_TRUE(reg.Snapshot(4).empty());

  // A harvest from a run estimated under older statistics is dropped whole.
  EXPECT_EQ(reg.Harvest({Node("extent:X", 10, 40)}, 2, 0.5), 0u);
  EXPECT_EQ(reg.stats().stale_dropped, 1u);
  EXPECT_EQ(reg.Snapshot(3).size(), 1u);  // unperturbed

  // A harvest under newer statistics clears and adopts: old factors die
  // with the statistics they were learned against.
  reg.NoteDemotion("fp", 5.0);
  EXPECT_EQ(reg.Harvest({Node("extent:Z", 10, 20)}, 4, 0.5), 1u);
  FeedbackCorrections c = reg.Snapshot(4);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_DOUBLE_EQ(c.Factor("extent:X"), 1.0);
  EXPECT_EQ(reg.TakeDemotionNote("fp"), 0.0);  // retired with the version
}

TEST(FeedbackRegistryTest, StateIsBounded) {
  FeedbackRegistry reg;
  std::vector<PlanNodeStats> run;
  for (size_t i = 0; i < FeedbackRegistry::kMaxScopes + 100; ++i) {
    run.push_back(Node("extent:X" + std::to_string(i), 10, 40));
  }
  reg.Harvest(run, 1, 0.5);
  EXPECT_EQ(reg.size(), FeedbackRegistry::kMaxScopes);
  // Existing scopes keep updating even at the cap.
  reg.Harvest({Node("extent:X0", 10, 40)}, 1, 0.5);
  EXPECT_GT(reg.Snapshot(1).Factor("extent:X0"), 2.5);

  for (size_t i = 0; i < FeedbackRegistry::kMaxDemotionNotes + 10; ++i) {
    reg.NoteDemotion("fp" + std::to_string(i), 3.0);
  }
  // Notes beyond the cap are dropped; the capped ones round-trip.
  EXPECT_EQ(reg.TakeDemotionNote("fp0"), 3.0);
  EXPECT_EQ(reg.TakeDemotionNote("fp0"), 0.0);  // take clears
  EXPECT_EQ(
      reg.TakeDemotionNote(
          "fp" + std::to_string(FeedbackRegistry::kMaxDemotionNotes + 5)),
      0.0);
}

TEST(FeedbackRegistryTest, UnscopedAndUnexecutedNodesAreIgnored) {
  FeedbackRegistry reg;
  std::vector<PlanNodeStats> run;
  run.push_back(Node("", 10, 40));  // projection/union/delta: no scope
  PlanNodeStats unexecuted = Node("extent:X", 10, 40);
  unexecuted.executed = false;
  run.push_back(unexecuted);
  PlanNodeStats no_estimate = Node("extent:Y", -1, 40);
  run.push_back(no_estimate);
  EXPECT_EQ(reg.Harvest(run, 1, 0.5), 0u);
  EXPECT_EQ(reg.size(), 0u);
}

// --- Session integration -----------------------------------------------------

class FeedbackSessionTest : public ::testing::Test {
 protected:
  FeedbackSessionTest() : g_(MakeMusicDb()) {}

  GeneratedDb g_;
};

QueryOptions FeedbackOn(double drift = 0, double alpha = 0) {
  QueryOptions o;
  o.cold = true;
  o.feedback.enabled = true;
  o.feedback.drift_threshold = drift;
  o.feedback.ewma_alpha = alpha;
  return o;
}

QueryOptions FeedbackOff() {
  QueryOptions o;
  o.cold = true;
  o.feedback.enabled = false;
  return o;
}

TEST_F(FeedbackSessionTest, ValidateRejectsBadTuning) {
  Session session(g_.db.get());
  QueryOptions bad;
  bad.feedback.drift_threshold = 1.0;  // must be > 1 (or 0 = inherit)
  EXPECT_EQ(session.Run(kFig3Text, bad).status.code,
            Status::Code::kInvalidArgument);
  QueryOptions bad2;
  bad2.feedback.ewma_alpha = 1.5;  // must be in [0, 1]
  EXPECT_EQ(session.Run(kFig3Text, bad2).status.code,
            Status::Code::kInvalidArgument);
  // NaN compares false against every bound, so it needs its own refusal
  // rather than silently falling back to the default.
  QueryOptions nan_drift;
  nan_drift.feedback.drift_threshold = std::nan("");
  EXPECT_EQ(session.Run(kFig3Text, nan_drift).status.code,
            Status::Code::kInvalidArgument);
  QueryOptions nan_alpha;
  nan_alpha.feedback.ewma_alpha = std::nan("");
  EXPECT_EQ(session.Run(kFig3Text, nan_alpha).status.code,
            Status::Code::kInvalidArgument);
}

TEST_F(FeedbackSessionTest, HarvestPopulatesSharedRegistry) {
  Session session(g_.db.get());
  ASSERT_TRUE(session.Run(kFig3Text, FeedbackOn()).ok());
  const FeedbackStats stats = session.feedback_registry().stats();
  EXPECT_GT(stats.observations, 0u);
  EXPECT_GT(session.feedback_registry().size(), 0u);

  // Feedback-off runs leave the registry untouched.
  Session off(g_.db.get());
  ASSERT_TRUE(off.Run(kFig3Text, FeedbackOff()).ok());
  EXPECT_EQ(off.feedback_registry().stats().observations, 0u);
}

TEST_F(FeedbackSessionTest, CorrectionsMoveEstimatesTowardMeasured) {
  Session session(g_.db.get());
  // Bypass the plan cache so every Explain re-optimizes: the warm run must
  // cost its plan under the corrections the cold runs harvested.
  QueryOptions opts = FeedbackOn();
  opts.bypass_plan_cache = true;

  // Cardinality q-errors of the executed, scoped plan nodes, computed from
  // the structured node_stats surface. Aggregated as geometric mean and
  // worst node — medians are fragile when corrections change the plan's
  // shape (a flipped join method adds nodes and shifts the median without
  // any estimate getting worse).
  struct QError {
    double geomean = 1.0;
    double worst = 1.0;
  };
  auto q_error = [](const ExplainResult& ex) {
    QError out;
    double log_sum = 0;
    size_t count = 0;
    for (const PlanNodeStats& n : ex.node_stats()) {
      if (n.scope.empty() || !n.executed || n.est_rows < 0) continue;
      const double m = static_cast<double>(n.measured_rows) /
                       static_cast<double>(n.invocations == 0 ? 1
                                                              : n.invocations);
      const double q = std::max((n.est_rows + 1) / (m + 1),
                                (m + 1) / (n.est_rows + 1));
      log_sum += std::log(q);
      ++count;
      out.worst = std::max(out.worst, q);
    }
    if (count > 0) out.geomean = std::exp(log_sum / count);
    return out;
  };

  const ExplainResult cold = session.Explain(kFig3Text, opts);
  ASSERT_TRUE(cold.ok()) << cold.status.ToString();
  const QError cold_err = q_error(cold);

  // Warm up: a few more harvests converge the EWMA factors.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(session.Run(kFig3Text, opts).ok());
  }
  const ExplainResult warm = session.Explain(kFig3Text, opts);
  ASSERT_TRUE(warm.ok()) << warm.status.ToString();
  const QError warm_err = q_error(warm);

  RecordProperty("cold_q_error_geomean", std::to_string(cold_err.geomean));
  RecordProperty("warm_q_error_geomean", std::to_string(warm_err.geomean));
  RecordProperty("cold_q_error_worst", std::to_string(cold_err.worst));
  RecordProperty("warm_q_error_worst", std::to_string(warm_err.worst));
  EXPECT_LE(warm_err.geomean, cold_err.geomean * 1.02)
      << "corrections made the estimates worse overall (geomean "
      << cold_err.geomean << " -> " << warm_err.geomean << ")";
  // The recursive query's worst estimate (the selection over the fixpoint's
  // output) is genuinely off cold — warm-up must show real movement there,
  // not a tie.
  ASSERT_GT(cold_err.worst, 1.5) << "workload lost its estimation error; "
                                    "pick a harder query for this test";
  EXPECT_LT(warm_err.worst, cold_err.worst);
}

TEST_F(FeedbackSessionTest, NodeStatsExposesTheEstVsMeasuredTable) {
  Session session(g_.db.get());
  const ExplainResult ex = session.Explain(kFig3Text, FeedbackOff());
  ASSERT_TRUE(ex.ok()) << ex.status.ToString();
  const std::vector<PlanNodeStats>& rows = ex.node_stats();
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0].parent, -1);  // preorder: root first
  bool any_extent_scope = false;
  bool any_executed = false;
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_FALSE(rows[i].op.empty());
    EXPECT_GE(rows[i].est_rows, 0);
    EXPECT_GE(rows[i].est_cost, 0);
    if (i > 0) {
      ASSERT_GE(rows[i].parent, 0);
      ASSERT_LT(static_cast<size_t>(rows[i].parent), i);  // parent precedes
    }
    any_extent_scope |= rows[i].scope.rfind("extent:", 0) == 0;
    any_executed |= rows[i].executed;
  }
  EXPECT_TRUE(any_extent_scope);
  EXPECT_TRUE(any_executed);

  // explain_only: estimates still fill, measured fields stay unset.
  QueryOptions plan_only = FeedbackOff();
  plan_only.explain_only = true;
  const ExplainResult dry = session.Explain(kFig3Text, plan_only);
  ASSERT_TRUE(dry.ok());
  for (const PlanNodeStats& n : dry.node_stats()) {
    EXPECT_FALSE(n.executed);
    EXPECT_GE(n.est_rows, 0);
  }
}

// The headline safety property: feedback changes plans, never results. Over
// a randomized 50-query SPJ corpus, rows and row order are identical
// feedback-on vs feedback-off, and whenever the chosen plan is the same the
// ExecCounters are bit-identical too (pass 1 starts from an empty registry,
// so the first query's plan — and therefore everything — must match). The
// same holds for three more paths a feedback-on run can take: a randomized
// corpus of the paper's recursive Influencer query, the streaming
// Session::Query cursor (which harvests when drained), and a request that
// carries the feedback bit through a server round trip.
TEST_F(FeedbackSessionTest, DifferentialRowsIdenticalOverRandomCorpus) {
  Session on(g_.db.get());
  Session off(g_.db.get());

  Rng rng(1999);
  const int kQueries = 50;
  std::vector<QueryGraph> corpus;
  for (int i = 0; i < kQueries; ++i) {
    QueryGraphBuilder b;
    NodeBuilder& node = b.Node("Answer");
    const int arcs = 1 + static_cast<int>(rng.Below(3));
    std::vector<std::string> vars;
    for (int a = 0; a < arcs; ++a) {
      const std::string var = "x" + std::to_string(a);
      node.Input("Composer", var);
      vars.push_back(var);
      if (a > 0) {
        node.Where(Expr::Eq(Expr::Path(vars[a - 1], {"master"}),
                            rng.Chance(0.5) ? Expr::Path(var, {"master"})
                                            : Expr::Path(var, {})));
      }
    }
    const int sels = static_cast<int>(rng.Below(3));
    for (int s = 0; s < sels; ++s) {
      const std::string& var = vars[rng.Below(vars.size())];
      if (rng.Chance(0.5)) {
        node.Where(Expr::Cmp(rng.Chance(0.5) ? CompareOp::kGe : CompareOp::kLt,
                             Expr::Path(var, {"birthyear"}),
                             Expr::Lit(Value::Int(rng.Range(1600, 1750)))));
      } else {
        static const char* kInstr[] = {"harpsichord", "flute", "violin",
                                       "organ"};
        node.Where(Expr::Eq(Expr::Path(var, {"works", "instruments", "iname"}),
                            Expr::Lit(Value::Str(kInstr[rng.Below(4)]))));
      }
    }
    node.OutPath("n", vars[0], {"name"});
    corpus.push_back(b.Build(*g_.schema));
  }

  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kQueries; ++i) {
      SCOPED_TRACE("pass " + std::to_string(pass) + " query " +
                   std::to_string(i));
      const QueryRun ron = on.Run(corpus[i], FeedbackOn());
      const QueryRun roff = off.Run(corpus[i], FeedbackOff());
      ASSERT_TRUE(ron.ok()) << ron.error();
      ASSERT_TRUE(roff.ok()) << roff.error();
      ASSERT_EQ(Keys(ron.answer), Keys(roff.answer));
      if (ron.plan_text == roff.plan_text) {
        ExpectSameCounters(ron.counters, roff.counters);
        EXPECT_EQ(ron.measured_cost, roff.measured_cost);
      }
      if (pass == 0 && i == 0) {
        // Empty registry: corrections are a no-op, so the very first plan is
        // bit-identical to feedback-off by construction.
        EXPECT_EQ(ron.plan_text, roff.plan_text);
      }
    }
  }

  // Each arm below must harvest, or it would compare feedback-off with
  // itself.
  auto observations = [&on] {
    return on.feedback_registry().stats().observations;
  };

  // Recursive arm: the fixpoint's estimates are the ones feedback corrects
  // most, so the second pass runs under the largest plan changes.
  const int kRecursive = 12;
  std::vector<QueryGraph> recursive;
  for (int i = 0; i < kRecursive; ++i) {
    recursive.push_back(RandomRecursiveQuery(&rng, *g_.schema));
  }
  uint64_t before = observations();
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kRecursive; ++i) {
      SCOPED_TRACE("recursive pass " + std::to_string(pass) + " query " +
                   std::to_string(i));
      const QueryRun ron = on.Run(recursive[i], FeedbackOn());
      const QueryRun roff = off.Run(recursive[i], FeedbackOff());
      ASSERT_TRUE(ron.ok()) << ron.error();
      ASSERT_TRUE(roff.ok()) << roff.error();
      ASSERT_EQ(Keys(ron.answer), Keys(roff.answer));
      if (ron.plan_text == roff.plan_text) {
        ExpectSameCounters(ron.counters, roff.counters);
        EXPECT_EQ(ron.measured_cost, roff.measured_cost);
      }
    }
  }
  EXPECT_GT(observations(), before);

  // Cursor arm: every query of both corpora streamed through
  // Session::Query and drained, against the feedback-off Run.
  std::vector<const QueryGraph*> streamed;
  for (const QueryGraph& q : corpus) streamed.push_back(&q);
  for (const QueryGraph& q : recursive) streamed.push_back(&q);
  before = observations();
  for (size_t i = 0; i < streamed.size(); ++i) {
    SCOPED_TRACE("cursor query " + std::to_string(i));
    ResultCursor cursor = on.Query(*streamed[i], FeedbackOn());
    ASSERT_TRUE(cursor.ok()) << cursor.error();
    const Table rows = cursor.ToTable();
    ASSERT_TRUE(cursor.ok()) << cursor.error();
    const QueryRun roff = off.Run(*streamed[i], FeedbackOff());
    ASSERT_TRUE(roff.ok()) << roff.error();
    ASSERT_EQ(Keys(rows), Keys(roff.answer));
    if (cursor.plan_text() == roff.plan_text) {
      ExpectSameCounters(cursor.counters(), roff.counters);
      EXPECT_EQ(cursor.measured_cost(), roff.measured_cost);
    }
  }
  EXPECT_GT(observations(), before);

  // Wire arm: the feedback bit survives the request frame and switches
  // the loop on in the server's session; the rows match an embedded
  // feedback-off run over the same engine.
  EngineOptions engine_options;
  engine_options.dataset = "music";
  engine_options.size = 40;
  Status status;
  std::unique_ptr<EngineHandle> engine =
      EngineHandle::Create(engine_options, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();
  server::ServerOptions server_options;
  server_options.workers = 1;
  server_options.max_in_flight = 2;
  std::unique_ptr<server::Server> srv =
      server::Server::Start(engine.get(), server_options, &status);
  ASSERT_NE(srv, nullptr) << status.ToString();
  server::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", srv->port()).ok());
  const server::ClientResult wire_on = client.Query(kFig3Text, FeedbackOn());
  ASSERT_TRUE(wire_on.ok()) << wire_on.status.ToString();
  EXPECT_GT(engine->feedback_registry()->stats().observations, 0u);
  const QueryRun embedded_off =
      engine->NewSession()->Run(kFig3Text, FeedbackOff());
  ASSERT_TRUE(embedded_off.ok()) << embedded_off.error();
  Table wire_rows;
  wire_rows.rows = wire_on.rows;
  ASSERT_FALSE(wire_rows.rows.empty());
  EXPECT_EQ(Keys(wire_rows), Keys(embedded_off.answer));
  client.Goodbye();
}

// --- Hygiene: what must never feed back --------------------------------------

class FeedbackHygieneTest : public ::testing::Test {
 protected:
  FeedbackHygieneTest() : g_(MakeMusicDb()) {}
  void TearDown() override { FaultInjector::Global().Configure(FaultConfig{}); }

  GeneratedDb g_;
};

TEST_F(FeedbackHygieneTest, TruncatedAnytimePlansContributeNothing) {
  FaultConfig fc;
  fc.force_deadline_stage = 4;  // transformPT degrades to an anytime plan
  FaultInjector::Global().Configure(fc);

  Session session(g_.db.get());
  const QueryRun run = session.Run(kFig3Text, FeedbackOn());
  ASSERT_TRUE(run.ok()) << run.error();
  bool any_truncated = false;
  for (const StageReport& s : run.optimized.stages) {
    any_truncated |= s.truncated;
  }
  ASSERT_TRUE(any_truncated);
  EXPECT_EQ(session.feedback_registry().stats().observations, 0u);
  EXPECT_EQ(session.plan_cache().size(), 0u);

  // Positive control: the same run without the forced deadline feeds back.
  FaultInjector::Global().Configure(FaultConfig{});
  ASSERT_TRUE(session.Run(kFig3Text, FeedbackOn()).ok());
  EXPECT_GT(session.feedback_registry().stats().observations, 0u);
}

TEST_F(FeedbackHygieneTest, CancelledAndAbandonedCursorsContributeNothing) {
  Session session(g_.db.get());
  QueryOptions on = FeedbackOn();
  on.batch_rows = 2;

  {
    // Abandoned: one batch pulled, then destroyed. Zero observations.
    ResultCursor cursor = session.Query(kFig3Text, on);
    ASSERT_TRUE(cursor.ok()) << cursor.error();
    RowBatch batch;
    cursor.Next(&batch);
  }
  EXPECT_EQ(session.feedback_registry().stats().observations, 0u);

  {
    // Cancelled mid-stream: the abort reason surfaces, nothing feeds back.
    // Fresh options: a copy of `on` would share its CancelToken's flag and
    // cancel the positive control below too.
    QueryOptions cancelled = FeedbackOn();
    cancelled.batch_rows = 2;
    CancelToken token = cancelled.query.cancel;  // caller-side copy
    ResultCursor cursor = session.Query(kFig3Text, cancelled);
    ASSERT_TRUE(cursor.ok()) << cursor.error();
    RowBatch batch;
    cursor.Next(&batch);
    token.RequestCancel();
    while (cursor.Next(&batch)) {
    }
    EXPECT_EQ(cursor.status().code, Status::Code::kCancelled);
  }
  EXPECT_EQ(session.feedback_registry().stats().observations, 0u);

  // Positive control: a drained cursor does feed back.
  ResultCursor cursor = session.Query(kFig3Text, on);
  ASSERT_TRUE(cursor.ok()) << cursor.error();
  cursor.Finish();
  EXPECT_GT(session.feedback_registry().stats().observations, 0u);
}

// --- Drift demotion ----------------------------------------------------------

TEST(FeedbackDemotionTest, DemoteReoptimizeRecacheRoundTripAcrossSessions) {
  GeneratedDb g = MakeMusicDb();
  auto cache = std::make_shared<PlanCache>();
  auto registry = std::make_shared<FeedbackRegistry>();
  Session s1(g.db.get(), {}, {}, cache, registry);
  Session s2(g.db.get(), {}, {}, cache, registry);

  // A threshold barely above 1 makes any real estimation error count as
  // drift — the recursive query's measured cost is never a hair from its
  // estimate, so the cached plan demotes deterministically.
  QueryOptions opts = FeedbackOn(/*drift=*/1.0001);

  // Run 1 (s1): miss + insert. Freshly optimized plans are never demoted.
  const QueryRun first = s1.Run(kFig3Text, opts);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_FALSE(first.plan_cached);
  EXPECT_EQ(first.reoptimized_drift, 0.0);
  EXPECT_EQ(cache->stats().demotions, 0u);

  // Run 2 (s1): hit, measured drift >= threshold -> demoted.
  const QueryRun hit = s1.Run(kFig3Text, opts);
  ASSERT_TRUE(hit.ok()) << hit.error();
  EXPECT_TRUE(hit.plan_cached);
  EXPECT_EQ(cache->stats().demotions, 1u);
  EXPECT_EQ(registry->stats().demotions, 1u);
  EXPECT_EQ(cache->size(), 0u);

  // Run 3 (the *other* session over the shared cache): transparent
  // re-optimization, surfaced in the result and the EXPLAIN report.
  const ExplainResult re = s2.Explain(kFig3Text, opts);
  ASSERT_TRUE(re.ok()) << re.status.ToString();
  EXPECT_FALSE(re.plan_cached);
  EXPECT_GT(re.reoptimized_drift, 1.0);
  EXPECT_NE(re.ToString().find("[plan: re-optimized (drift"),
            std::string::npos);

  // The re-optimized plan is re-cached: run 4 hits again, and the drift
  // note was consumed (no stale "re-optimized" banner).
  const QueryRun again = s1.Run(kFig3Text, opts);
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_TRUE(again.plan_cached);
  EXPECT_EQ(again.reoptimized_drift, 0.0);
}

TEST(FeedbackDemotionTest, GenerousThresholdNeverDemotes) {
  GeneratedDb g = MakeMusicDb();
  Session session(g.db.get());
  // An absurd threshold: estimates are imperfect, but not 1e6x off.
  QueryOptions opts = FeedbackOn(/*drift=*/1e6);
  ASSERT_TRUE(session.Run(kFig3Text, opts).ok());
  const QueryRun hit = session.Run(kFig3Text, opts);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.plan_cached);
  EXPECT_EQ(session.plan_cache().stats().demotions, 0u);
}

// --- EngineHandle sharing ----------------------------------------------------

TEST(FeedbackEngineTest, SessionsShareTheHandleRegistry) {
  EngineOptions options;
  options.dataset = "music";
  options.size = 40;
  Status status;
  std::unique_ptr<EngineHandle> engine = EngineHandle::Create(options, &status);
  ASSERT_NE(engine, nullptr) << status.ToString();

  std::unique_ptr<Session> a = engine->NewSession();
  std::unique_ptr<Session> b = engine->NewSession();
  ASSERT_TRUE(a->Run(kFig3Text, FeedbackOn()).ok());
  // One tenant's harvest is the other tenant's corrections.
  EXPECT_GT(engine->feedback_registry()->stats().observations, 0u);
  EXPECT_EQ(&b->feedback_registry(), engine->feedback_registry().get());
  EXPECT_GT(b->feedback_registry().size(), 0u);
}

}  // namespace
}  // namespace rodin
