// Differential-testing oracle for the parallel randomized search: whatever
// plan ParallelStrategy lands on for a randomized schema/database/query, the
// executed answer must equal the answer of the *untransformed* baseline PT
// (naive options: greedy join order, nothing pushed, no randomized phase).
// Plan search may only change cost, never semantics — any divergence means a
// local move or a push decision broke equivalence.
//
// Databases are randomized per seed (sizes, fanouts, selectivity fractions,
// physical design), and queries are drawn from random SPJ and random
// recursive generators. Failures reproduce from the test parameter seed.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.h"
#include "cost/cost_model.h"
#include "cost/stats.h"
#include "datagen/graph_gen.h"
#include "datagen/music_gen.h"
#include "exec/executor.h"
#include "optimizer/baseline.h"
#include "optimizer/optimizer.h"
#include "query/graph_queries.h"
#include "query/query_graph.h"
#include "support/random_queries.h"

namespace rodin {
namespace {

/// Executes the chosen plan and keys every row for multiset comparison.
std::multiset<std::string> RowSet(Database* db, const PTNode& plan) {
  Executor exec(db);
  Table t = exec.Execute(plan);
  t.Dedup();
  std::multiset<std::string> rows;
  for (const Row& row : t.rows) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    rows.insert(key);
  }
  return rows;
}

/// The oracle: parallel-search answer == untransformed-baseline answer.
void ExpectParallelMatchesBaseline(Database* db, const Stats& stats,
                                   const CostModel& cost, const QueryGraph& q,
                                   uint64_t seed) {
  // Baseline: greedy join order, never push, no randomized improvement —
  // the plainest correct PT the optimizer can produce.
  OptimizerOptions baseline = NaiveOptions(seed);
  baseline.transform.rand = RandStrategy::kNone;
  Optimizer base_opt(db, &stats, &cost, baseline);
  OptimizeResult base = base_opt.Optimize(q);
  ASSERT_TRUE(base.ok()) << base.status.ToString() << "\n" << q.ToString();

  // Subject: the full cost-based pipeline with the randomized search fanned
  // across 4 workers and enough restarts to actually move.
  OptimizerOptions subject = CostBasedOptions(seed);
  subject.search_threads = 4;
  subject.transform.rand_restarts = 4;
  Optimizer subject_opt(db, &stats, &cost, subject);
  OptimizeResult found = subject_opt.Optimize(q);
  ASSERT_TRUE(found.ok()) << found.status.ToString() << "\n" << q.ToString();

  EXPECT_EQ(RowSet(db, *found.plan), RowSet(db, *base.plan))
      << "parallel search changed the answer\n"
      << q.ToString();
}

// --- Random SPJ and recursive queries over a randomized music database -----
// (the differential suites' shared generators, support/random_queries.h)

class DifferentialSearchTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialSearchTest, MusicSpjAndRecursive) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 101 + 13);

  // Randomized database: sizes, chain depth and selectivities vary per seed;
  // the physical design randomly gains selection indices (so the search has
  // real access-method choices to flip).
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
    ExpectParallelMatchesBaseline(g.db.get(), stats, cost, spj, seed + round);
  }
  for (int round = 0; round < 2; ++round) {
    const QueryGraph rec = RandomRecursiveQuery(&rng, *g.schema);
    ExpectParallelMatchesBaseline(g.db.get(), stats, cost, rec, seed + round);
  }
}

TEST_P(DifferentialSearchTest, GraphClosure) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 77 + 3);

  // A different schema shape entirely: the parameterized recursion substrate
  // with randomized depth, reference-path length and label selectivity.
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
  ExpectParallelMatchesBaseline(g.db.get(), stats, cost, q, seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSearchTest,
                         ::testing::Range<uint64_t>(1, 7),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace rodin
