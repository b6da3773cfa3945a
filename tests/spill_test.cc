// Spill-to-disk differential suite: forcing every operator working set over
// the temp-page ledger (memory_budget_pages = 1), or only the larger ones
// (4 and 16 pages), must change *nothing observable* about a query — same
// rows in the same order, every ExecCounters field, the buffer pool's
// fetch/hit/miss totals and MeasuredCost() bit-identical to the reference
// evaluator (tests/support/reference_exec.h), in every batch_rows x
// exec_threads configuration. The budget never touches the buffer pool,
// so this is exact equality, not a tolerance (docs/ROBUSTNESS.md).
//
// Also covered here: the cumulative live-temp-page ledger (two allocations
// that each fit the budget individually must still spill together), the
// single-oversized-row refusal with its machine-readable kResourceExhausted
// detail, spilled fix-cache hits, lifecycle (cancel / forced deadline)
// interactions mid-spill, and the API surfaces a forced budget reaches: a
// traced Session::Run (the execute span's spill args), a Session::Query
// cursor drained or destroyed early, and an executor-owned cursor destroyed
// early. Each is checked against an unlimited twin. The budget also enters
// costing, so session-level twins first check that both chose one plan
// shape: a plan change fails loudly instead of reading as an accounting
// difference.
//
// Queries cover the paper's Figure 3 recursion plus randomized SPJ,
// recursive and graph-closure queries (the exec_differential_test
// generators). Failures reproduce from the seed in the test name;
// RODIN_TEST_SEED=N shifts every seed by N.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "common/faults.h"
#include "common/rng.h"
#include "cost/cost_model.h"
#include "cost/stats.h"
#include "datagen/graph_gen.h"
#include "datagen/music_gen.h"
#include "exec/executor.h"
#include "exec/result_cursor.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/baseline.h"
#include "optimizer/optimizer.h"
#include "plan/pt.h"
#include "query/builder.h"
#include "query/expr.h"
#include "query/graph_queries.h"
#include "query/paper_queries.h"
#include "query/query_graph.h"
#include "support/random_queries.h"
#include "support/reference_exec.h"
#include "test_seed.h"

namespace rodin {
namespace {

QueryContext ForcedSpillContext() {
  QueryContext q;
  q.memory_budget_pages = 1;  // every multi-page working set goes to disk
  return q;
}

/// Runs `plan` on the reference evaluator, then on every batched
/// configuration with no budget and under 1-, 4- and 16-page budgets,
/// asserting exact equality throughout. Returns the maximum spill count
/// seen under the 1-page budget, so callers that know the query
/// materializes multiple temps can assert the forced arm really exercised
/// the spill path.
uint64_t ExpectSpillIdentical(Database* db, const PTNode& plan,
                              const std::string& label) {
  const QueryContext unlimited;
  const QueryContext forced = ForcedSpillContext();
  QueryContext four;
  four.memory_budget_pages = 4;
  QueryContext sixteen;
  sixteen.memory_budget_pages = 16;
  const std::vector<uint64_t> spills = ExpectEngineMatchesReference(
      db, plan, label,
      {{"unlimited", &unlimited},
       {"budget=1", &forced},
       {"budget=4", &four},
       {"budget=16", &sixteen}});
  EXPECT_EQ(spills[0], 0u);
  return spills[1];
}

uint64_t OptimizeAndCompare(Database* db, const Stats& stats,
                            const CostModel& cost, const QueryGraph& q,
                            uint64_t seed, const std::string& label) {
  Optimizer optimizer(db, &stats, &cost, CostBasedOptions(seed));
  OptimizeResult plan = optimizer.Optimize(q);
  EXPECT_TRUE(plan.ok()) << plan.status.ToString() << "\n" << q.ToString();
  if (!plan.ok()) return 0;
  return ExpectSpillIdentical(db, *plan.plan, label);
}

// --- Figure 3: the paper's running example ---------------------------------

TEST(SpillDifferentialTest, Fig3HarpsichordForcedSpillIsBitIdentical) {
  MusicConfig config;
  config.num_composers = 60;
  config.lineage_depth = 8;
  GeneratedDb g = GenerateMusicDb(config, PaperMusicPhysical());
  Stats stats = Stats::Derive(*g.db);
  CostModel cost(g.db.get(), &stats);
  const uint64_t spills = OptimizeAndCompare(g.db.get(), stats, cost,
                                             Fig3Query(*g.schema), 42, "fig3");
  // The fixpoint's per-iteration deltas and the memoized result all exceed
  // a 1-page ledger, so the forced arm must really have spilled.
  EXPECT_GT(spills, 0u);
}

// --- Randomized queries over randomized databases --------------------------
// (the exec_differential_test generators, re-run across every budget arm)

class SpillDifferentialSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpillDifferentialSeedTest, MusicSpjAndRecursive) {
  const uint64_t seed = GetParam() + TestSeedBase();
  SCOPED_TRACE("effective seed=" + std::to_string(seed) +
               " (RODIN_TEST_SEED shifts)");
  Rng rng(seed * 101 + 13);

  MusicConfig config;
  config.seed = seed * 31 + 7;
  config.num_composers = 40 + static_cast<uint32_t>(rng.Below(50));
  config.lineage_depth = 3 + static_cast<uint32_t>(rng.Below(8));
  config.harpsichord_fraction = 0.05 + 0.25 * rng.NextDouble();
  config.works_per_composer_max = 4 + static_cast<uint32_t>(rng.Below(5));
  PhysicalConfig physical = PaperMusicPhysical();
  if (rng.Chance(0.5)) {
    physical.sel_indexes.push_back(SelIndexSpec{"Composer", "name"});
  }
  if (rng.Chance(0.5)) {
    physical.sel_indexes.push_back(SelIndexSpec{"Composer", "birthyear"});
  }
  GeneratedDb g = GenerateMusicDb(config, physical);
  Stats stats = Stats::Derive(*g.db);
  CostModel cost(g.db.get(), &stats);

  for (int round = 0; round < 2; ++round) {
    const QueryGraph spj = RandomSpjQuery(&rng, *g.schema);
    OptimizeAndCompare(g.db.get(), stats, cost, spj, seed + round,
                       "spj round " + std::to_string(round));
  }
  uint64_t recursive_spills = 0;
  for (int round = 0; round < 2; ++round) {
    const QueryGraph rec = RandomRecursiveQuery(&rng, *g.schema);
    recursive_spills += OptimizeAndCompare(
        g.db.get(), stats, cost, rec, seed + round,
        "recursive round " + std::to_string(round));
  }
  // Every recursive query materializes fixpoint deltas wider than one page
  // at these database sizes: the forced arm must have hit the disk.
  EXPECT_GT(recursive_spills, 0u);
}

TEST_P(SpillDifferentialSeedTest, GraphClosure) {
  const uint64_t seed = GetParam() + TestSeedBase();
  SCOPED_TRACE("effective seed=" + std::to_string(seed) +
               " (RODIN_TEST_SEED shifts)");
  Rng rng(seed * 77 + 3);

  GraphConfig config;
  config.seed = seed * 13 + 1;
  config.num_nodes = 60 + static_cast<uint32_t>(rng.Below(60));
  config.chain_depth = 4 + static_cast<uint32_t>(rng.Below(6));
  config.path_len = static_cast<uint32_t>(rng.Below(3));
  config.num_labels = 2 + static_cast<uint32_t>(rng.Below(8));
  GeneratedDb g = GenerateGraphDb(config, DefaultGraphPhysical());
  Stats stats = Stats::Derive(*g.db);
  CostModel cost(g.db.get(), &stats);

  const QueryGraph q = GraphClosureQuery(config, *g.schema);
  OptimizeAndCompare(g.db.get(), stats, cost, q, seed, "graph closure");
}

// 6 seeds x (2 SPJ + 2 recursive) + 6 graph closures = 30 random queries,
// each compared across 24 engine/budget arms against the reference.
INSTANTIATE_TEST_SUITE_P(Seeds, SpillDifferentialSeedTest,
                         ::testing::Range<uint64_t>(1, 7),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- The cumulative live-page ledger ---------------------------------------

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

GeneratedDb MakeLedgerDb() {
  MusicConfig config;
  config.num_composers = 60;
  config.lineage_depth = 8;
  return GenerateMusicDb(config, PaperMusicPhysical());
}

/// The Composer extent bound to `var`, materialized with nine padding
/// columns: a temp of several pages when a join builds it as its inner.
PTPtr PaddedComposers(const ClassDef* composer, const std::string& var) {
  std::vector<OutCol> proj;
  std::vector<PTCol> cols;
  proj.push_back(OutCol{var, Expr::Path(var, {})});
  cols.push_back(PTCol{var, composer});
  for (int k = 0; k < 9; ++k) {
    const std::string pad = var + "_pad" + std::to_string(k);
    proj.push_back(OutCol{pad, Expr::Lit(Value::Int(k))});
    cols.push_back(PTCol{pad, nullptr});
  }
  return MakeProj(MakeEntity(EntityRef{"Composer", 0, 0}, var, composer),
                  std::move(proj), std::move(cols), /*dedup=*/false);
}

/// Composers `c` joined to their disciples `x` and, when `twice`, on to the
/// disciples' disciples `y`: one or two materialized join inners.
PTPtr DiscipleJoins(const ClassDef* composer, bool twice) {
  PTPtr plan = MakeEJ(
      MakeEntity(EntityRef{"Composer", 0, 0}, "c", composer),
      PaddedComposers(composer, "x"),
      Expr::Cmp(CompareOp::kEq, Expr::Path("c", {}), Expr::Path("x", {"master"})),
      JoinAlgo::kNestedLoop);
  if (!twice) return plan;
  return MakeEJ(
      std::move(plan), PaddedComposers(composer, "y"),
      Expr::Cmp(CompareOp::kEq, Expr::Path("x", {}), Expr::Path("y", {"master"})),
      JoinAlgo::kNestedLoop);
}

TEST(SpillLedgerTest, CumulativeLiveTempPagesTripAcrossAllocations) {
  // Join inners are held to query end, so the two-join plan has both of its
  // inners live at once. Walk the budget up until one inner fits alone (the
  // one-join plan does not spill) but not beside the other (the two-join
  // plan does): only the *cumulative* ledger spills there. The regression
  // this pins: a per-allocation check (the original bug) never spills at
  // such a budget, over-committing memory by the live remainder. Every arm
  // must still match the reference evaluator exactly.
  GeneratedDb g = MakeLedgerDb();
  const ClassDef* composer = g.schema->FindClass("Composer");
  const PTPtr one = DiscipleJoins(composer, /*twice=*/false);
  const PTPtr two = DiscipleJoins(composer, /*twice=*/true);
  bool cumulative_trip = false;
  for (size_t budget = 1; budget <= 64; ++budget) {
    QueryContext query;
    query.memory_budget_pages = budget;
    const std::string label = "budget " + std::to_string(budget);
    const uint64_t alone = ExpectEngineMatchesReference(
        g.db.get(), *one, label + ", one join", {{"budget", &query}})[0];
    const uint64_t together = ExpectEngineMatchesReference(
        g.db.get(), *two, label + ", two joins", {{"budget", &query}})[0];
    if (HasFailure() || together == 0) break;  // everything fits
    if (alone == 0) {
      cumulative_trip = true;
      break;
    }
  }
  EXPECT_TRUE(cumulative_trip)
      << "no budget produced a cumulative-ledger spill; the per-allocation "
         "regression is unprotected";
}

// --- The one refusal: a row wider than the budget ---------------------------

QueryGraph WideRecursiveQuery(const Schema& schema) {
  // 260 extra columns push one row past a 1-page budget (16 bytes/value:
  // 263 columns ~ 4208 bytes > 4096), so the fixpoint delta's first
  // allocation is refused: no spill can split one row.
  QueryGraphBuilder b;
  NodeBuilder& p1 = b.Node("Influencer", "P1");
  p1.Input("Composer", "x");
  p1.OutPath("master", "x", {"master"});
  p1.OutPath("disciple", "x");
  p1.Out("gen", Expr::Lit(Value::Int(1)));
  NodeBuilder& p2 = b.Node("Influencer", "P2");
  p2.Input("Influencer", "i");
  p2.Input("Composer", "x");
  p2.Where(Expr::Eq(Expr::Path("i", {"disciple"}), Expr::Path("x", {"master"})));
  p2.OutPath("master", "i", {"master"});
  p2.OutPath("disciple", "x");
  p2.Out("gen", Expr::Arith(ArithOp::kAdd, Expr::Path("i", {"gen"}),
                            Expr::Lit(Value::Int(1))));
  for (int i = 0; i < 260; ++i) {
    const std::string col = "c" + std::to_string(i);
    p1.Out(col, Expr::Lit(Value::Int(i)));
    p2.Out(col, Expr::Lit(Value::Int(i)));
  }
  NodeBuilder& answer = b.Node("Answer", "P3");
  answer.Input("Influencer", "j");
  answer.OutPath("n", "j", {"disciple", "name"});
  return b.Build(schema);
}

TEST(SpillLedgerTest, RowWiderThanBudgetIsRefused) {
  MusicConfig config;
  config.num_composers = 20;
  config.lineage_depth = 4;
  GeneratedDb g = GenerateMusicDb(config, PaperMusicPhysical());
  Stats stats = Stats::Derive(*g.db);
  CostModel cost(g.db.get(), &stats);
  Optimizer optimizer(g.db.get(), &stats, &cost, CostBasedOptions(42));
  OptimizeResult plan = optimizer.Optimize(WideRecursiveQuery(*g.schema));
  ASSERT_TRUE(plan.ok()) << plan.status.ToString();

  const QueryContext forced = ForcedSpillContext();
  ExecOptions options;
  options.query = &forced;
  Executor exec(g.db.get());
  exec.ResetMeasurement(/*clear_buffer=*/true);
  Table out;
  const Status status = exec.ExecuteInto(*plan.plan, options, &out);
  ASSERT_EQ(status.code, Status::Code::kResourceExhausted)
      << status.ToString();
  EXPECT_NE(status.message.find("no partitioning can split one row"),
            std::string::npos)
      << status.message;
  // The packed detail names the tripping operator and the page arithmetic,
  // so pool managers branch on the payload, not on message text.
  EXPECT_EQ(ResourceDetailOp(status.detail), SpillOpTag::kFixDelta);
  EXPECT_EQ(ResourceDetailRequested(status.detail), TempRowPages(263));
  EXPECT_LE(ResourceDetailRemaining(status.detail), 1u);
  EXPECT_TRUE(out.rows.empty());
  // Narrower working sets (the union dedup) may have spilled before the
  // wide row tripped; the point is the refusal fired although spilling
  // handles every other over-budget working set.

  // The same plan under no budget completes, exactly like the reference:
  // the refusal is about the budget, not the query.
  const QueryContext unlimited;
  ExecOptions ok;
  ok.query = &unlimited;
  const ExecFingerprint got = EngineFingerprint(g.db.get(), *plan.plan, ok);
  EXPECT_FALSE(got.rows.empty());
  ExpectSameFingerprint(got, ReferenceFingerprint(g.db.get(), *plan.plan));
}

// --- Spilled fix-cache hits ------------------------------------------------

TEST(SpillLedgerTest, SpilledFixCacheHitServesIdenticalRows) {
  MusicConfig config;
  config.num_composers = 60;
  config.lineage_depth = 8;
  GeneratedDb g = GenerateMusicDb(config, PaperMusicPhysical());
  Stats stats = Stats::Derive(*g.db);
  CostModel cost(g.db.get(), &stats);
  Optimizer optimizer(g.db.get(), &stats, &cost, CostBasedOptions(42));
  OptimizeResult plan = optimizer.Optimize(Fig3Query(*g.schema));
  ASSERT_TRUE(plan.ok()) << plan.status.ToString();

  const QueryContext forced = ForcedSpillContext();
  // One executor each: the fix cache (and the reference's memo) persists
  // across Execute calls, so the second run is served from the (spilled)
  // memoized result.
  Executor spilling(g.db.get());
  ReferenceExecutor reference(g.db.get());
  ExecOptions forced_options;
  forced_options.query = &forced;

  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    spilling.ResetMeasurement(/*clear_buffer=*/true);
    const Table got = spilling.Execute(*plan.plan, forced_options);
    reference.ResetMeasurement(/*clear_buffer=*/true);
    const Table want = reference.Execute(*plan.plan);
    ASSERT_EQ(Keys(got), Keys(want));
    EXPECT_EQ(spilling.MeasuredCost(), reference.MeasuredCost());
    EXPECT_EQ(spilling.counters().fix_iterations,
              reference.counters().fix_iterations);
  }
  // The cache-hit run re-read the spilled payload from disk.
  EXPECT_GT(spilling.spill_stats().passes, 0u);
}

// --- Lifecycle mid-spill ---------------------------------------------------

class SpillLifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override { g_ = MakeLedgerDb(); }
  void TearDown() override { FaultInjector::Global().Configure(FaultConfig{}); }
  GeneratedDb g_;
};

TEST_F(SpillLifecycleTest, CancelAbortsForcedSpillRun) {
  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  options.query.memory_budget_pages = 1;
  options.query.cancel.RequestCancel();
  const QueryRun run = session.Run(kFig3Text, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status.code, Status::Code::kCancelled) << run.status.ToString();
  EXPECT_TRUE(run.answer.rows.empty());
}

TEST_F(SpillLifecycleTest, ForcedDeadlineMidFixpointUnderForcedSpill) {
  // The forced deadline fires inside the semi-naive loop, after earlier
  // iterations have already written spill files: the abort must unwind
  // them cleanly (tmpfile-backed spill files self-delete) and surface the
  // deadline, not a spill artifact. The partial accounting is exact: the
  // same abort of the same plan with no budget charged the same work.
  FaultConfig fc;
  fc.force_deadline_fix_iter = 2;
  FaultInjector::Global().Configure(fc);

  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  options.query.memory_budget_pages = 1;
  const QueryRun run = session.Run(kFig3Text, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status.code, Status::Code::kDeadlineExceeded)
      << run.status.ToString();
  EXPECT_EQ(run.counters.fix_iterations, 1u);
  EXPECT_TRUE(run.answer.rows.empty());

  QueryOptions unlimited;
  unlimited.cold = true;
  const QueryRun in_memory = session.Run(kFig3Text, unlimited);
  EXPECT_EQ(in_memory.status.code, Status::Code::kDeadlineExceeded)
      << in_memory.status.ToString();
  ASSERT_EQ(run.optimized.plan->Fingerprint(),
            in_memory.optimized.plan->Fingerprint());
  EXPECT_EQ(run.counters.predicate_evals, in_memory.counters.predicate_evals);
  EXPECT_EQ(run.counters.method_calls, in_memory.counters.method_calls);
  EXPECT_EQ(run.counters.rows_produced, in_memory.counters.rows_produced);
  EXPECT_EQ(run.counters.fix_iterations, in_memory.counters.fix_iterations);
  EXPECT_EQ(run.measured_cost, in_memory.measured_cost);
}

// --- The API surfaces under a forced budget ---------------------------------
// A 1-page memory_budget_pages on one query, against the same query with no
// budget: the same plan shape, rows, ExecCounters and measured cost, and the
// forced twin really spilled.

/// The rodin.spill.* metrics (zero when observability is compiled out).
struct SpillMetrics {
  uint64_t spills = 0;
  uint64_t partitions = 0;
  uint64_t bytes = 0;
  uint64_t passes = 0;

  static SpillMetrics Now() {
    auto value = [](const char* name) {
      return obs::MetricsRegistry::Global().GetCounter(name)->value();
    };
    return {value("rodin.spill.spills"), value("rodin.spill.partitions"),
            value("rodin.spill.bytes"), value("rodin.spill.passes")};
  }

  SpillMetrics Since(const SpillMetrics& before) const {
    return {spills - before.spills, partitions - before.partitions,
            bytes - before.bytes, passes - before.passes};
  }
};

/// The run's spill metrics, checked against the twin it belongs to: the
/// forced twin spilled, the unlimited one did not.
void ExpectSpilled(const SpillMetrics& forced, const SpillMetrics& unlimited) {
  if (!obs::kObsEnabled) return;
  EXPECT_GT(forced.spills, 0u);
  EXPECT_GT(forced.partitions, 0u);
  EXPECT_GT(forced.bytes, 0u);
  EXPECT_EQ(unlimited.spills, 0u);
}

/// The args of the trace's one "execute" span.
std::map<std::string, std::string> ExecuteSpanArgs(const obs::Trace& trace) {
  std::map<std::string, std::string> args;
  size_t spans = 0;
  for (const obs::TraceEvent& event : trace.events()) {
    if (event.name != "execute") continue;
    ++spans;
    args.insert(event.args.begin(), event.args.end());
  }
  EXPECT_EQ(spans, 1u);
  return args;
}

class SpillSurfaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = MakeLedgerDb();
    forced_.cold = true;
    forced_.query.memory_budget_pages = 1;
    unlimited_.cold = true;
  }

  /// Both twins choose one plan shape (checked on a fresh session, so the
  /// twins' own plan cache stays cold).
  void ExpectSamePlanShape() {
    Session probe(g_.db.get());
    QueryOptions forced = forced_;
    QueryOptions unlimited = unlimited_;
    forced.explain_only = true;
    unlimited.explain_only = true;
    const QueryRun a = probe.Run(kFig3Text, forced);
    const QueryRun b = probe.Run(kFig3Text, unlimited);
    ASSERT_TRUE(a.ok()) << a.error();
    ASSERT_TRUE(b.ok()) << b.error();
    EXPECT_EQ(a.optimized.plan->Fingerprint(), b.optimized.plan->Fingerprint());
  }

  GeneratedDb g_;
  QueryOptions forced_;
  QueryOptions unlimited_;
};

TEST_F(SpillSurfaceTest, TracedRunCarriesSpillArgsOnlyWhenItSpilled) {
  Session session(g_.db.get());
  forced_.collect_trace = true;
  unlimited_.collect_trace = true;
  SpillMetrics before = SpillMetrics::Now();
  const QueryRun spilled = session.Run(kFig3Text, forced_);
  const SpillMetrics forced = SpillMetrics::Now().Since(before);
  before = SpillMetrics::Now();
  const QueryRun in_memory = session.Run(kFig3Text, unlimited_);
  const SpillMetrics unlimited = SpillMetrics::Now().Since(before);
  ASSERT_TRUE(spilled.ok()) << spilled.error();
  ASSERT_TRUE(in_memory.ok()) << in_memory.error();
  ASSERT_EQ(spilled.optimized.plan->Fingerprint(),
            in_memory.optimized.plan->Fingerprint());

  EXPECT_FALSE(in_memory.answer.rows.empty());
  EXPECT_EQ(Keys(spilled.answer), Keys(in_memory.answer));
  ExpectSameCounters(spilled.counters, in_memory.counters);
  EXPECT_EQ(spilled.measured_cost, in_memory.measured_cost);
  ExpectSpilled(forced, unlimited);

  if (!obs::kObsEnabled) return;  // the tracer is compiled out
  ASSERT_NE(spilled.trace, nullptr);
  ASSERT_NE(in_memory.trace, nullptr);
  // docs/OBSERVABILITY.md: a run that spilled adds its partitions, bytes
  // and read-back passes to the execute span; one that did not adds none.
  const std::map<std::string, std::string> args =
      ExecuteSpanArgs(*spilled.trace);
  ASSERT_EQ(args.count("spill_partitions"), 1u);
  ASSERT_EQ(args.count("spill_bytes"), 1u);
  ASSERT_EQ(args.count("spill_passes"), 1u);
  EXPECT_EQ(args.at("spill_partitions"), std::to_string(forced.partitions));
  EXPECT_EQ(args.at("spill_bytes"), std::to_string(forced.bytes));
  EXPECT_EQ(args.at("spill_passes"), std::to_string(forced.passes));
  const std::map<std::string, std::string> plain =
      ExecuteSpanArgs(*in_memory.trace);
  EXPECT_EQ(plain.count("spill_partitions"), 0u);
  EXPECT_EQ(plain.count("spill_bytes"), 0u);
  EXPECT_EQ(plain.count("spill_passes"), 0u);
}

TEST_F(SpillSurfaceTest, DrainedCursorMatchesItsUnlimitedTwin) {
  ASSERT_NO_FATAL_FAILURE(ExpectSamePlanShape());
  Session session(g_.db.get());
  forced_.batch_rows = 3;
  unlimited_.batch_rows = 3;
  SpillMetrics before = SpillMetrics::Now();
  ResultCursor spilled = session.Query(kFig3Text, forced_);
  const Table spilled_rows = spilled.ToTable();
  const SpillMetrics forced = SpillMetrics::Now().Since(before);
  before = SpillMetrics::Now();
  ResultCursor in_memory = session.Query(kFig3Text, unlimited_);
  const Table in_memory_rows = in_memory.ToTable();
  const SpillMetrics unlimited = SpillMetrics::Now().Since(before);

  ASSERT_TRUE(spilled.ok()) << spilled.error();
  ASSERT_TRUE(in_memory.ok()) << in_memory.error();
  EXPECT_FALSE(in_memory_rows.rows.empty());
  EXPECT_EQ(Keys(spilled_rows), Keys(in_memory_rows));
  ExpectSameCounters(spilled.counters(), in_memory.counters());
  EXPECT_EQ(spilled.measured_cost(), in_memory.measured_cost());
  ExpectSpilled(forced, unlimited);
}

/// Keys of the next batch the cursor yields (expected to exist).
std::vector<std::string> NextBatchKeys(ResultCursor* cursor) {
  RowBatch batch;
  EXPECT_TRUE(cursor->Next(&batch));
  Table table;
  table.rows = std::move(batch.rows);
  return Keys(table);
}

TEST_F(SpillSurfaceTest, CursorDestroyedEarlyMatchesItsUnlimitedTwin) {
  // One batch of one row, then the cursor goes away: the fixpoint below
  // the answer has run (and spilled) in full, the rest of the stream never
  // does. Session::Query's executor dies with its cursor, so its partial
  // run shows only in the buffer pool and the metrics; an executor that
  // outlives its cursor also keeps the partial counters and measured cost.
  forced_.batch_rows = 1;
  unlimited_.batch_rows = 1;
  ASSERT_NO_FATAL_FAILURE(ExpectSamePlanShape());
  struct Partial {
    std::vector<std::string> rows;
    BufferPool::Stats pool;
    SpillMetrics spill;
  };
  Session session(g_.db.get());
  auto abandon_query = [&](const QueryOptions& options) {
    Partial out;
    const SpillMetrics before = SpillMetrics::Now();
    {
      ResultCursor cursor = session.Query(kFig3Text, options);
      EXPECT_TRUE(cursor.ok()) << cursor.error();
      out.rows = NextBatchKeys(&cursor);
    }
    out.pool = g_.db->buffer_pool().stats();  // a cold run zeroes them
    out.spill = SpillMetrics::Now().Since(before);
    return out;
  };
  const Partial spilled = abandon_query(forced_);
  const Partial in_memory = abandon_query(unlimited_);
  EXPECT_EQ(spilled.rows.size(), 1u);
  EXPECT_EQ(spilled.rows, in_memory.rows);
  EXPECT_GT(in_memory.pool.fetches, 0u);
  EXPECT_EQ(spilled.pool.fetches, in_memory.pool.fetches);
  EXPECT_EQ(spilled.pool.hits, in_memory.pool.hits);
  EXPECT_EQ(spilled.pool.misses, in_memory.pool.misses);
  ExpectSpilled(spilled.spill, in_memory.spill);

  Stats stats = Stats::Derive(*g_.db);
  CostModel cost(g_.db.get(), &stats);
  Optimizer optimizer(g_.db.get(), &stats, &cost, CostBasedOptions(42));
  OptimizeResult plan = optimizer.Optimize(Fig3Query(*g_.schema));
  ASSERT_TRUE(plan.ok()) << plan.status.ToString();
  struct Abandoned {
    std::vector<std::string> rows;
    ExecCounters counters;
    double measured_cost = 0;
    uint64_t spills = 0;
  };
  // Read before the next run: its cold start zeroes the shared pool's
  // miss count that MeasuredCost() subtracts from.
  auto abandon_stream = [&](const QueryContext& query) {
    Executor exec(g_.db.get());
    exec.ResetMeasurement(/*clear_buffer=*/true);
    ExecOptions options;
    options.batch_rows = 1;
    options.query = &query;
    Abandoned out;
    {
      ResultCursor cursor = exec.ExecuteStream(*plan.plan, options);
      out.rows = NextBatchKeys(&cursor);
    }
    out.counters = exec.counters();
    out.measured_cost = exec.MeasuredCost();
    out.spills = exec.spill_stats().spills;
    return out;
  };
  const Abandoned forced = abandon_stream(ForcedSpillContext());
  const Abandoned unlimited = abandon_stream(QueryContext{});
  EXPECT_EQ(forced.rows.size(), 1u);
  EXPECT_EQ(forced.rows, unlimited.rows);
  ExpectSameCounters(forced.counters, unlimited.counters);
  EXPECT_GT(unlimited.measured_cost, 0);
  EXPECT_EQ(forced.measured_cost, unlimited.measured_cost);
  EXPECT_GT(forced.spills, 0u);
  EXPECT_EQ(unlimited.spills, 0u);
}

}  // namespace
}  // namespace rodin
