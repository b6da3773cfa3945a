// Plan cache differential suite: a run served from the cache must be
// bit-identical to a cold optimize-and-run — same rows in the same order,
// every ExecCounters field, and MeasuredCost() — over the paper's Figure 3
// query and the randomized SPJ/recursive/closure queries of the exec
// differential suite. The same corpus checks that Run and a drained Query
// (one query path) agree, feedback off and on. Plus the correctness rules:
// a stats refresh and physical-schema changes invalidate (the fingerprint
// separates ablated layouts even in a shared cache), truncated
// optimizations are never cached, LRU eviction under a tiny capacity, and
// the PreparedQuery fast path.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/plan_cache.h"
#include "api/session.h"
#include "common/faults.h"
#include "common/rng.h"
#include "datagen/graph_gen.h"
#include "datagen/music_gen.h"
#include "obs/config.h"
#include "optimizer/baseline.h"
#include "query/graph_queries.h"
#include "query/paper_queries.h"
#include "query/parser.h"
#include "support/query_paths.h"
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

std::vector<std::string> Keys(const Table& t) {
  std::vector<std::string> out;
  for (const Row& row : t.rows) {
    std::string key;
    for (const Value& v : row) key += v.ToString() + "|";
    out.push_back(std::move(key));
  }
  return out;
}

GeneratedDb MakeMusicDb() {
  MusicConfig config;
  config.num_composers = 40;
  config.lineage_depth = 8;
  return GenerateMusicDb(config, PaperMusicPhysical());
}

/// The differential core: first run populates the cache (miss), second run
/// hits, and a bypass run re-optimizes from scratch as the oracle. All
/// three runs are cold so execution accounting is deterministic; the hit
/// must match the oracle bitwise in rows, counters and measured cost —
/// and in the plan and its estimated cost.
void ExpectCachedRunIdentical(Session* session, const QueryGraph& q,
                              const std::string& label) {
  SCOPED_TRACE(label);
  QueryOptions cold;
  cold.cold = true;

  const QueryRun first = session->Run(q, cold);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_FALSE(first.plan_cached);

  const QueryRun hit = session->Run(q, cold);
  ASSERT_TRUE(hit.ok()) << hit.error();
  EXPECT_TRUE(hit.plan_cached);

  QueryOptions bypass = cold;
  bypass.bypass_plan_cache = true;
  const QueryRun oracle = session->Run(q, bypass);
  ASSERT_TRUE(oracle.ok()) << oracle.error();
  EXPECT_FALSE(oracle.plan_cached);

  ASSERT_EQ(Keys(hit.answer), Keys(oracle.answer));
  ExpectSameCounters(hit.counters, oracle.counters);
  EXPECT_EQ(hit.measured_cost, oracle.measured_cost);  // bitwise, no ULP
  EXPECT_EQ(hit.plan_text, oracle.plan_text);
  EXPECT_EQ(hit.optimized.cost, oracle.optimized.cost);
  EXPECT_EQ(hit.optimized.plans_explored, oracle.optimized.plans_explored);
  EXPECT_EQ(hit.decisions.ToString(), oracle.decisions.ToString());
  // The first (miss) run must equal both as well: inserting into the cache
  // does not perturb the inserting run.
  ASSERT_EQ(Keys(first.answer), Keys(oracle.answer));
  ExpectSameCounters(first.counters, oracle.counters);
  EXPECT_EQ(first.measured_cost, oracle.measured_cost);
}

using PlanCacheTest = ::testing::Test;
using PlanCacheDifferentialTest = PlanCacheTest;

// --- Figure 3 --------------------------------------------------------------

TEST_F(PlanCacheDifferentialTest, Fig3CachedRunIsBitIdentical) {
  GeneratedDb g = MakeMusicDb();
  Session session(g.db.get());
  const ParseResult parsed = ParseQuery(kFig3Text, g.db->schema());
  ASSERT_TRUE(parsed.ok()) << parsed.status.ToString();
  ExpectCachedRunIdentical(&session, parsed.graph, "fig3");
  ExpectDrainedQueryMatchesRun(g.db.get(), OptimizerOptions{}, parsed.graph);

  const PlanCacheStats stats = session.plan_cache().stats();
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);  // the bypass run does not count as a miss
}

// --- Randomized queries over randomized databases --------------------------
// The differential suites' shared generators (support/random_queries.h),
// so the cache sees the same plan diversity the engine is already proven
// on.

using PlanCacheSeedTest = ::testing::TestWithParam<uint64_t>;

TEST_P(PlanCacheSeedTest, MusicSpjAndRecursive) {
  const uint64_t seed = GetParam();
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
  Session session(g.db.get(), CostBasedOptions(seed));

  for (int round = 0; round < 3; ++round) {
    const QueryGraph spj = RandomSpjQuery(&rng, *g.schema);
    ExpectCachedRunIdentical(&session, spj,
                             "spj round " + std::to_string(round));
    ExpectDrainedQueryMatchesRun(g.db.get(), CostBasedOptions(seed), spj);
  }
  for (int round = 0; round < 2; ++round) {
    const QueryGraph rec = RandomRecursiveQuery(&rng, *g.schema);
    ExpectCachedRunIdentical(&session, rec,
                             "recursive round " + std::to_string(round));
    ExpectDrainedQueryMatchesRun(g.db.get(), CostBasedOptions(seed), rec);
  }
}

TEST_P(PlanCacheSeedTest, GraphClosure) {
  const uint64_t seed = GetParam();
  Rng rng(seed * 77 + 3);

  GraphConfig config;
  config.seed = seed * 13 + 1;
  config.num_nodes = 60 + static_cast<uint32_t>(rng.Below(60));
  config.chain_depth = 4 + static_cast<uint32_t>(rng.Below(6));
  config.path_len = static_cast<uint32_t>(rng.Below(3));
  config.num_labels = 2 + static_cast<uint32_t>(rng.Below(8));
  GeneratedDb g = GenerateGraphDb(config, DefaultGraphPhysical());
  Session session(g.db.get(), CostBasedOptions(seed));

  const QueryGraph q = GraphClosureQuery(config, *g.schema);
  ExpectCachedRunIdentical(&session, q, "graph closure");
  ExpectDrainedQueryMatchesRun(g.db.get(), CostBasedOptions(seed), q);
}

// 5 seeds x (3 SPJ + 2 recursive) + 5 graph closures = 30 random queries,
// each checked cached-vs-cold-optimized.
INSTANTIATE_TEST_SUITE_P(Seeds, PlanCacheSeedTest,
                         ::testing::Range<uint64_t>(1, 6),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- Invalidation ----------------------------------------------------------

TEST_F(PlanCacheTest, RefreshStatsInvalidatesEntries) {
  GeneratedDb g = MakeMusicDb();
  Session session(g.db.get());
  QueryOptions cold;
  cold.cold = true;

  const QueryRun warmup = session.Run(kFig3Text, cold);
  ASSERT_TRUE(warmup.ok()) << warmup.error();
  const QueryRun hit = session.Run(kFig3Text, cold);
  ASSERT_TRUE(hit.plan_cached);

  session.txn().BumpStatsVersion();  // what EngineHandle::RefreshStats does

  const QueryRun after = session.Run(kFig3Text, cold);
  ASSERT_TRUE(after.ok()) << after.error();
  EXPECT_FALSE(after.plan_cached);  // stale entry dropped, re-optimized
  const PlanCacheStats stats = session.plan_cache().stats();
  EXPECT_EQ(stats.invalidations, 1u);
  // The database did not change, so the re-optimized plan (and its run)
  // matches the pre-refresh one.
  ASSERT_EQ(Keys(after.answer), Keys(hit.answer));
  EXPECT_EQ(after.plan_text, hit.plan_text);
  EXPECT_EQ(after.measured_cost, hit.measured_cost);

  const QueryRun rehit = session.Run(kFig3Text, cold);
  EXPECT_TRUE(rehit.plan_cached);  // re-inserted under the new version
}

TEST_F(PlanCacheTest, PhysicalSchemaAblationSeparatesEntries) {
  // Two databases with identical data, one with the paper's path index and
  // one without, share one cache. The fingerprint's physical identity keeps
  // their entries apart: the ablated session must re-optimize (the path
  // index's absence changes the plan space), never reuse the indexed plan.
  MusicConfig config;
  config.num_composers = 40;
  config.lineage_depth = 8;
  GeneratedDb with_index = GenerateMusicDb(config, PaperMusicPhysical());
  PhysicalConfig ablated_physical = PaperMusicPhysical();
  ablated_physical.path_indexes.clear();
  GeneratedDb without_index = GenerateMusicDb(config, ablated_physical);

  auto cache = std::make_shared<PlanCache>();
  Session indexed(with_index.db.get(), {}, {}, cache);
  Session ablated(without_index.db.get(), {}, {}, cache);
  QueryOptions cold;
  cold.cold = true;

  const QueryRun a = indexed.Run(kFig3Text, cold);
  ASSERT_TRUE(a.ok()) << a.error();
  const QueryRun b = ablated.Run(kFig3Text, cold);
  ASSERT_TRUE(b.ok()) << b.error();
  EXPECT_FALSE(b.plan_cached);  // distinct fingerprint, no cross-hit
  EXPECT_EQ(cache->size(), 2u);
  EXPECT_EQ(cache->stats().hits, 0u);

  // Both sessions hit their own entry afterwards.
  EXPECT_TRUE(indexed.Run(kFig3Text, cold).plan_cached);
  EXPECT_TRUE(ablated.Run(kFig3Text, cold).plan_cached);

  // Same logical data: identical answers (order may differ across plans).
  std::vector<std::string> rows_a = Keys(a.answer);
  std::vector<std::string> rows_b = Keys(b.answer);
  std::sort(rows_a.begin(), rows_a.end());
  std::sort(rows_b.begin(), rows_b.end());
  EXPECT_EQ(rows_a, rows_b);
}

TEST_F(PlanCacheTest, SearchThreadsShareOneEntry) {
  // The randomized search picks the identical plan at any thread count, so
  // search_threads is not part of the fingerprint: a 4-thread run hits the
  // entry a 1-thread run inserted, and serves the plan a 4-thread
  // re-optimization would choose.
  GeneratedDb g = MakeMusicDb();
  Session session(g.db.get());
  QueryOptions one;
  one.cold = true;
  one.search_threads = 1;
  const QueryRun first = session.Run(kFig3Text, one);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_FALSE(first.plan_cached);

  QueryOptions four = one;
  four.search_threads = 4;
  const QueryRun hit = session.Run(kFig3Text, four);
  ASSERT_TRUE(hit.ok()) << hit.error();
  EXPECT_TRUE(hit.plan_cached);
  EXPECT_EQ(session.plan_cache().size(), 1u);

  QueryOptions oracle_options = four;
  oracle_options.bypass_plan_cache = true;
  const QueryRun oracle = session.Run(kFig3Text, oracle_options);
  ASSERT_TRUE(oracle.ok()) << oracle.error();
  EXPECT_FALSE(oracle.plan_cached);
  EXPECT_EQ(hit.plan_text, oracle.plan_text);
  EXPECT_EQ(hit.optimized.cost, oracle.optimized.cost);
  ASSERT_EQ(Keys(hit.answer), Keys(oracle.answer));
}

// --- Never-cache rules -----------------------------------------------------

class PlanCacheFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Configure(FaultConfig{}); }
};

TEST_F(PlanCacheFaultTest, TruncatedOptimizationIsNeverCached) {
  GeneratedDb g = MakeMusicDb();
  Session session(g.db.get());
  QueryOptions cold;
  cold.cold = true;
  cold.query.deadline_ms = 10'000;  // armed deadline, far from expiring

  // Force the transformPT stage to see an expired deadline: the anytime
  // search truncates and the run still succeeds, but its plan is not the
  // one a full search would pick, so it must not be cached.
  FaultConfig fc;
  fc.force_deadline_stage = 4;
  FaultInjector::Global().Configure(fc);

  for (int run = 0; run < 2; ++run) {
    const QueryRun truncated = session.Run(kFig3Text, cold);
    ASSERT_TRUE(truncated.ok()) << truncated.error();
    EXPECT_FALSE(truncated.plan_cached);
    bool any_truncated = false;
    for (const StageReport& s : truncated.optimized.stages) {
      any_truncated |= s.truncated;
    }
    ASSERT_TRUE(any_truncated);
  }
  // Both runs looked the plan up and missed; neither inserted.
  EXPECT_EQ(session.plan_cache().stats().inserts, 0u);
  EXPECT_EQ(session.plan_cache().size(), 0u);
  EXPECT_EQ(session.plan_cache().stats().hits, 0u);
  EXPECT_EQ(session.plan_cache().stats().misses, 2u);
}

// --- Eviction --------------------------------------------------------------

TEST_F(PlanCacheTest, LruEvictionUnderTinyCapacity) {
  GeneratedDb g = MakeMusicDb();
  auto cache = std::make_shared<PlanCache>(/*capacity=*/2);
  Session session(g.db.get(), {}, {}, cache);
  QueryOptions cold;
  cold.cold = true;

  const char* queries[] = {
      R"(select [n: x.name] from x in Composer where x.birthyear < 1700)",
      R"(select [n: x.name] from x in Composer where x.birthyear >= 1700)",
      R"(select [n: x.name] from x in Composer
         where x.works.instruments.iname = "harpsichord")",
  };
  for (const char* q : queries) {
    const QueryRun run = session.Run(q, cold);
    ASSERT_TRUE(run.ok()) << run.error();
  }
  EXPECT_EQ(cache->size(), 2u);
  EXPECT_EQ(cache->stats().evictions, 1u);

  // Least recently used (the first query) was evicted; the newest two hit.
  EXPECT_TRUE(session.Run(queries[2], cold).plan_cached);
  EXPECT_TRUE(session.Run(queries[1], cold).plan_cached);
  EXPECT_FALSE(session.Run(queries[0], cold).plan_cached);
}

// --- PreparedQuery ---------------------------------------------------------

TEST_F(PlanCacheTest, PreparedQueryHitsCacheAndMatchesRun) {
  GeneratedDb g = MakeMusicDb();
  Session session(g.db.get());
  QueryOptions cold;
  cold.cold = true;

  PreparedQuery pq = session.Prepare(kFig3Text);
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();

  const QueryRun first = pq.Run(cold);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_FALSE(first.plan_cached);
  const QueryRun second = pq.Run(cold);
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_TRUE(second.plan_cached);
  ASSERT_EQ(Keys(second.answer), Keys(first.answer));
  ExpectSameCounters(second.counters, first.counters);
  EXPECT_EQ(second.measured_cost, first.measured_cost);

  // Prepared and ad-hoc runs share the same fingerprint: Run(text) hits the
  // entry the prepared query inserted.
  const QueryRun adhoc = session.Run(kFig3Text, cold);
  EXPECT_TRUE(adhoc.plan_cached);

  // The streaming path hits it too.
  ResultCursor cursor = pq.Query(cold);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  size_t rows = 0;
  RowBatch batch;
  while (cursor.Next(&batch)) rows += batch.rows.size();
  EXPECT_EQ(rows, first.answer.rows.size());
}

TEST_F(PlanCacheTest, PreparedQueryParseErrorIsSticky) {
  GeneratedDb g = MakeMusicDb();
  Session session(g.db.get());
  PreparedQuery pq = session.Prepare("select [n: from x in");
  EXPECT_FALSE(pq.ok());
  EXPECT_EQ(pq.status().code, Status::Code::kParse);
  const QueryRun run = pq.Run();
  EXPECT_EQ(run.status.code, Status::Code::kParse);
  ResultCursor cursor = pq.Query();
  EXPECT_FALSE(cursor.ok());
  EXPECT_EQ(cursor.status().code, Status::Code::kParse);
}

// --- Hit-path observability ------------------------------------------------

TEST_F(PlanCacheTest, CacheHitSkipsOptimizerStagesInTrace) {
  GeneratedDb g = MakeMusicDb();
  Session session(g.db.get());
  QueryOptions traced;
  traced.cold = true;
  traced.collect_trace = true;

  const QueryRun miss = session.Run(kFig3Text, traced);
  ASSERT_TRUE(miss.ok()) << miss.error();
  const QueryRun hit = session.Run(kFig3Text, traced);
  ASSERT_TRUE(hit.ok()) << hit.error();
  ASSERT_TRUE(hit.plan_cached);

#if RODIN_OBS_ENABLED
  ASSERT_NE(miss.trace, nullptr);
  ASSERT_NE(hit.trace, nullptr);
  // The miss traced all four optimizer stages; the hit traced none of them
  // (zero stage spans) but still traced execution.
  for (const char* stage : {"rewrite", "translate", "generatePT",
                            "transformPT"}) {
    EXPECT_TRUE(miss.trace->HasSpan(stage)) << stage;
    EXPECT_FALSE(hit.trace->HasSpan(stage)) << stage;
  }
  EXPECT_TRUE(hit.trace->HasSpan("execute"));
#endif

  // The replayed stage reports still describe the original optimization.
  EXPECT_EQ(hit.optimized.stages.size(), miss.optimized.stages.size());

  // EXPLAIN annotates the hit.
  const ExplainResult ex = session.Explain(kFig3Text, QueryOptions{.cold = true});
  ASSERT_TRUE(ex.ok()) << ex.status.ToString();
  EXPECT_TRUE(ex.plan_cached);
  EXPECT_NE(ex.ToString().find("[plan: cached]"), std::string::npos);
}

TEST_F(PlanCacheTest, DeadlineStillGovernsCachedExecution) {
  GeneratedDb g = MakeMusicDb();
  Session session(g.db.get());
  QueryOptions cold;
  cold.cold = true;
  const QueryRun warmup = session.Run(kFig3Text, cold);
  ASSERT_TRUE(warmup.ok()) << warmup.error();

  // A cached plan still runs under the caller's context: a cancel token
  // fired before the run stops it even though planning is skipped.
  QueryOptions cancelled = cold;
  cancelled.query.cancel.RequestCancel();
  const QueryRun run = session.Run(kFig3Text, cancelled);
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status.code, Status::Code::kCancelled);
}

}  // namespace
}  // namespace rodin
