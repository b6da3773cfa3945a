// Spill-to-disk differential suite: forcing every operator working set over
// the temp-page ledger (spill_budget_pages = 1, spill on) must change
// *nothing observable* about a query — same rows in the same order, every
// ExecCounters field, the buffer pool's fetch/hit/miss totals and
// MeasuredCost() bit-identical to the reference evaluator
// (tests/support/reference_exec.h), in every batch_rows x exec_threads
// configuration. The ledger budget deliberately never clamps the buffer
// pool's LRU capacity, so this is exact equality, not a tolerance
// (docs/ROBUSTNESS.md).
//
// Also covered here: the cumulative live-temp-page ledger (two allocations
// that each fit the budget individually must still trip / spill together),
// the machine-readable kResourceExhausted detail when spilling is off, the
// single-oversized-row refusal, spilled fix-cache hits, lifecycle (cancel /
// forced deadline) interactions mid-spill, and the RODIN_SPILL_BUDGET
// grammar.
//
// Queries cover the paper's Figure 3 recursion plus randomized SPJ,
// recursive and graph-closure queries (the exec_differential_test
// generators). Failures reproduce from the seed in the test name;
// RODIN_TEST_SEED=N shifts every seed by N.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/session.h"
#include "common/faults.h"
#include "common/rng.h"
#include "cost/cost_model.h"
#include "cost/stats.h"
#include "datagen/graph_gen.h"
#include "datagen/music_gen.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "optimizer/baseline.h"
#include "optimizer/optimizer.h"
#include "query/builder.h"
#include "query/graph_queries.h"
#include "query/paper_queries.h"
#include "query/query_graph.h"
#include "support/random_queries.h"
#include "support/reference_exec.h"
#include "test_seed.h"

namespace rodin {
namespace {

/// An explicit "unlimited" ledger: large enough that nothing spills, and —
/// because an engaged spill_budget_pages takes precedence — immune to a
/// RODIN_SPILL_BUDGET forced by the surrounding CI job.
constexpr size_t kUnlimitedPages = size_t{1} << 30;

QueryContext ForcedSpillContext() {
  QueryContext q;
  q.spill = true;
  q.spill_budget_pages = 1;  // every multi-page working set goes to disk
  return q;
}

QueryContext UnlimitedContext() {
  QueryContext q;
  q.spill = true;
  q.spill_budget_pages = kUnlimitedPages;
  return q;
}

/// Runs `plan` on the reference evaluator, then on every batched
/// configuration under both ledger arms (unlimited / forced spill),
/// asserting exact equality throughout. Returns the maximum spill count
/// seen across the forced arm, so callers that know the query materializes
/// multiple temps can assert the forced arm really exercised the spill
/// path.
uint64_t ExpectSpillIdentical(Database* db, const PTNode& plan,
                              const std::string& label) {
  const QueryContext unlimited = UnlimitedContext();
  const QueryContext forced = ForcedSpillContext();
  const std::vector<uint64_t> spills = ExpectEngineMatchesReference(
      db, plan, label,
      {{"unlimited", &unlimited}, {"forced-spill", &forced}});
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
// (the exec_differential_test generators, re-run across both ledger arms)

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
// each compared across 12 engine/ledger arms against the reference.
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

// Two recursive views joined in the answer: both memoized fixpoint results
// (plus the join's inner materialization) are live at the same time, so
// there are budgets where every allocation fits individually but the
// cumulative ledger is over — the shape the pre-fix per-allocation check
// silently admitted.
const char kTwoClosuresText[] = R"(
relation Influencer includes
  (select [master: x.master, disciple: x, gen: 1] from x in Composer)
  union
  (select [master: i.master, disciple: x, gen: i.gen + 1]
   from i in Influencer, x in Composer where i.disciple = x.master)

relation Lineage includes
  (select [root: x.master, leaf: x] from x in Composer)
  union
  (select [root: l.root, leaf: x]
   from l in Lineage, x in Composer where l.leaf = x.master)

select [a: i.disciple.name, b: l.leaf.name]
from i in Influencer, l in Lineage
where i.disciple = l.leaf and i.gen >= 3
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

TEST(SpillLedgerTest, CumulativeLiveTempPagesTripAcrossAllocations) {
  GeneratedDb g = MakeLedgerDb();
  Session session(g.db.get());
  QueryOptions unlimited;
  unlimited.cold = true;
  unlimited.query.spill_budget_pages = kUnlimitedPages;
  const QueryRun base = session.Run(kTwoClosuresText, unlimited);
  ASSERT_TRUE(base.ok()) << base.error();

  // Walk the budget up until a trip whose requested size alone fits the
  // budget: only the *cumulative* ledger can refuse that allocation. The
  // regression this pins: a per-allocation check (the original bug) never
  // trips at such a budget, over-committing memory by the live remainder.
  bool cumulative_trip = false;
  for (size_t budget = 1; budget <= (1u << 16); budget *= 2) {
    QueryOptions off;
    off.cold = true;
    off.query.spill = false;
    off.query.spill_budget_pages = budget;
    const QueryRun run = session.Run(kTwoClosuresText, off);
    if (run.ok()) break;  // the whole working set fits: nothing left to trip
    ASSERT_EQ(run.status.code, Status::Code::kResourceExhausted)
        << run.status.ToString();
    const uint64_t requested = ResourceDetailRequested(run.status.detail);
    const uint64_t remaining = ResourceDetailRemaining(run.status.detail);
    EXPECT_GT(requested, remaining) << run.status.ToString();
    EXPECT_LE(remaining, budget);
    if (requested > budget) continue;  // largest-alloc trip, keep growing

    cumulative_trip = true;
    // The same budget with spilling on must complete with the unlimited
    // answer and cost (the ledger never clamps the buffer pool), and must
    // really have spilled.
    obs::Counter* spill_metric =
        obs::MetricsRegistry::Global().GetCounter("rodin.spill.spills");
    const uint64_t spills_before = spill_metric->value();
    QueryOptions on = off;
    on.query.spill = true;
    const QueryRun spilled = session.Run(kTwoClosuresText, on);
    ASSERT_TRUE(spilled.ok()) << spilled.status.ToString();
    EXPECT_EQ(Keys(spilled.answer), Keys(base.answer));
    EXPECT_EQ(spilled.measured_cost, base.measured_cost);
    EXPECT_GT(spill_metric->value(), spills_before);
    break;
  }
  EXPECT_TRUE(cumulative_trip)
      << "no budget produced a cumulative-ledger trip; the per-allocation "
         "regression is unprotected";
}

// --- kResourceExhausted detail (spilling off) ------------------------------

TEST(SpillLedgerTest, SpillOffTripCarriesMachineReadableDetail) {
  GeneratedDb g = MakeLedgerDb();
  Session session(g.db.get());
  QueryOptions off;
  off.cold = true;
  off.query.spill = false;
  off.query.spill_budget_pages = 1;
  const QueryRun run = session.Run(kFig3Text, off);
  ASSERT_FALSE(run.ok());
  ASSERT_EQ(run.status.code, Status::Code::kResourceExhausted)
      << run.status.ToString();
  EXPECT_TRUE(run.answer.rows.empty());

  // The packed detail names the tripping operator and the page arithmetic,
  // so pool managers branch on the payload, not on message text.
  const SpillOpTag tag = ResourceDetailOp(run.status.detail);
  EXPECT_TRUE(tag == SpillOpTag::kJoinBuild || tag == SpillOpTag::kFixDelta ||
              tag == SpillOpTag::kDedup || tag == SpillOpTag::kFixCache ||
              tag == SpillOpTag::kUnion)
      << static_cast<int>(tag);
  EXPECT_GT(ResourceDetailRequested(run.status.detail), 1u);
  EXPECT_LE(ResourceDetailRemaining(run.status.detail), 1u);
  EXPECT_NE(run.status.message.find("spilling is off"), std::string::npos)
      << run.status.message;

  // The identical query with spilling on (the default) completes.
  QueryOptions on = off;
  on.query.spill = true;
  const QueryRun ok = session.Run(kFig3Text, on);
  ASSERT_TRUE(ok.ok()) << ok.status.ToString();
  EXPECT_FALSE(ok.answer.rows.empty());
}

// --- The one unconditional refusal: a row wider than the budget ------------

QueryGraph WideRecursiveQuery(const Schema& schema) {
  // 260 extra columns push one row past a 1-page ledger (16 bytes/value:
  // 263 columns ~ 4208 bytes > 4096), so the fixpoint delta's first
  // allocation is refused even with spilling on.
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

TEST(SpillLedgerTest, RowWiderThanBudgetIsRefusedEvenWithSpillOn) {
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
  EXPECT_EQ(ResourceDetailRequested(status.detail), TempRowPages(263));
  EXPECT_TRUE(out.rows.empty());
  // Narrower working sets (the union dedup) may have spilled before the
  // wide row tripped; the point is the refusal fired despite spill-on.

  // The same plan under an unlimited ledger completes, exactly like the
  // reference: the refusal is about the budget, not the query.
  const QueryContext unlimited = UnlimitedContext();
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
  options.query.spill = true;
  options.query.spill_budget_pages = 1;
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
  // same abort with an unlimited ledger charged the same work.
  FaultConfig fc;
  fc.force_deadline_fix_iter = 2;
  FaultInjector::Global().Configure(fc);

  Session session(g_.db.get());
  QueryOptions options;
  options.cold = true;
  options.query.spill = true;
  options.query.spill_budget_pages = 1;
  const QueryRun run = session.Run(kFig3Text, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status.code, Status::Code::kDeadlineExceeded)
      << run.status.ToString();
  EXPECT_EQ(run.counters.fix_iterations, 1u);
  EXPECT_TRUE(run.answer.rows.empty());

  QueryOptions unlimited;
  unlimited.cold = true;
  unlimited.query.spill_budget_pages = kUnlimitedPages;
  const QueryRun in_memory = session.Run(kFig3Text, unlimited);
  EXPECT_EQ(in_memory.status.code, Status::Code::kDeadlineExceeded)
      << in_memory.status.ToString();
  EXPECT_EQ(run.counters.predicate_evals, in_memory.counters.predicate_evals);
  EXPECT_EQ(run.counters.method_calls, in_memory.counters.method_calls);
  EXPECT_EQ(run.counters.rows_produced, in_memory.counters.rows_produced);
  EXPECT_EQ(run.counters.fix_iterations, in_memory.counters.fix_iterations);
  EXPECT_EQ(run.measured_cost, in_memory.measured_cost);
}

// --- RODIN_SPILL_BUDGET ------------------------------------------------------

TEST(SpillBudgetEnvTest, OnlyCompleteUnsignedIntegersParse) {
  size_t pages = 99;
  ASSERT_TRUE(ParseSpillBudgetEnv(nullptr, &pages).ok());
  EXPECT_EQ(pages, 0u);
  pages = 99;
  ASSERT_TRUE(ParseSpillBudgetEnv("", &pages).ok());
  EXPECT_EQ(pages, 0u);
  ASSERT_TRUE(ParseSpillBudgetEnv("0", &pages).ok());
  EXPECT_EQ(pages, 0u);
  ASSERT_TRUE(ParseSpillBudgetEnv("1", &pages).ok());
  EXPECT_EQ(pages, 1u);
  ASSERT_TRUE(ParseSpillBudgetEnv("4096", &pages).ok());
  EXPECT_EQ(pages, 4096u);

  // strtoull alone read "-1" as 2^64-1 pages, "abc" as 0 (unlimited) and
  // "8x" as 8. Each is refused, naming the value, and leaves *pages alone.
  for (const char* bad : {"-1", "abc", "8x", " 8", "+8", "8 ", "0x10",
                          "99999999999999999999999"}) {
    pages = 7;
    const Status status = ParseSpillBudgetEnv(bad, &pages);
    EXPECT_EQ(status.code, Status::Code::kInvalidArgument) << bad;
    EXPECT_NE(status.message.find(std::string("'") + bad + "'"),
              std::string::npos)
        << status.message;
    EXPECT_EQ(pages, 7u) << bad;
  }
}

}  // namespace
}  // namespace rodin
