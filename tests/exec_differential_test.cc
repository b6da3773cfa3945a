// Differential test for the batched morsel-parallel engine: for any batch
// size and thread count, the executor must produce the *same rows in the
// same order* as the reference whole-table evaluator
// (tests/support/reference_exec.h), with bit-identical accounting — every
// ExecCounters field, the buffer pool's fetch/hit/miss totals, and
// MeasuredCost(). The batched engine defers page charges into per-operator
// logs and replays them in the reference's evaluation order, so
// "identical" here is exact equality, not a tolerance.
//
// Queries cover the paper's Figure 3 recursion plus randomized SPJ and
// recursive queries over randomized databases (reusing the PR 1 generators'
// shapes). Failures reproduce from the seed in the test name; setting
// RODIN_TEST_SEED=N shifts every seed by N for fresh inputs (the effective
// seed is logged on failure).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "cost/cost_model.h"
#include "cost/stats.h"
#include "datagen/graph_gen.h"
#include "datagen/music_gen.h"
#include "exec/executor.h"
#include "optimizer/baseline.h"
#include "optimizer/optimizer.h"
#include "query/graph_queries.h"
#include "query/paper_queries.h"
#include "query/query_graph.h"
#include "support/random_queries.h"
#include "support/reference_exec.h"
#include "test_seed.h"

namespace rodin {
namespace {

void OptimizeAndCompare(Database* db, const Stats& stats, const CostModel& cost,
                        const QueryGraph& q, uint64_t seed,
                        const std::string& label) {
  Optimizer optimizer(db, &stats, &cost, CostBasedOptions(seed));
  OptimizeResult plan = optimizer.Optimize(q);
  ASSERT_TRUE(plan.ok()) << plan.status.ToString() << "\n" << q.ToString();
  ExpectEngineMatchesReference(db, *plan.plan, label);
}

// --- Figure 3: the paper's running example ---------------------------------

TEST(ExecDifferentialTest, Fig3Harpsichord) {
  MusicConfig config;
  config.num_composers = 60;
  config.lineage_depth = 8;
  GeneratedDb g = GenerateMusicDb(config, PaperMusicPhysical());
  Stats stats = Stats::Derive(*g.db);
  CostModel cost(g.db.get(), &stats);
  OptimizeAndCompare(g.db.get(), stats, cost, Fig3Query(*g.schema), 42,
                     "fig3");
}

// --- Randomized queries over randomized databases --------------------------

class ExecDifferentialSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecDifferentialSeedTest, MusicSpjAndRecursive) {
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

  for (int round = 0; round < 3; ++round) {
    const QueryGraph spj = RandomSpjQuery(&rng, *g.schema);
    OptimizeAndCompare(g.db.get(), stats, cost, spj, seed + round,
                       "spj round " + std::to_string(round));
  }
  for (int round = 0; round < 2; ++round) {
    const QueryGraph rec = RandomRecursiveQuery(&rng, *g.schema);
    OptimizeAndCompare(g.db.get(), stats, cost, rec, seed + round,
                       "recursive round " + std::to_string(round));
  }
}

TEST_P(ExecDifferentialSeedTest, GraphClosure) {
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

// 5 seeds x (3 SPJ + 2 recursive) + 5 graph closures = 30 random queries,
// each compared across 6 batched configurations against the reference.
INSTANTIATE_TEST_SUITE_P(Seeds, ExecDifferentialSeedTest,
                         ::testing::Range<uint64_t>(1, 6),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace rodin
