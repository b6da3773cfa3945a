// Session::Explain on the paper's Figure 3 query: stage reports, the push
// decision with both costed alternatives, per-operator measured counters, a
// digit-normalized golden rendering, and metrics determinism across thread
// counts.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.h"
#include "datagen/music_gen.h"
#include "obs/metrics.h"
#include "optimizer/baseline.h"
#include "query/paper_queries.h"

namespace rodin {
namespace {

// Collapses every maximal run of digits (with embedded '.') to '#', so
// measured timings and data-dependent figures don't churn the golden file
// while the report's structure stays pinned.
std::string NormalizeNumbers(const std::string& s) {
  std::string out;
  bool in_number = false;
  for (char c : s) {
    const bool numeric = (c >= '0' && c <= '9') || (in_number && c == '.');
    if (numeric) {
      if (!in_number) out += '#';
      in_number = true;
    } else {
      in_number = false;
      out += c;
    }
  }
  return out;
}

std::string GoldenPath() {
  return std::string(RODIN_TESTDATA_DIR) + "/golden/explain_fig3.txt";
}

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MusicConfig config;
    config.num_composers = 40;
    config.lineage_depth = 8;
    g_ = GenerateMusicDb(config, PaperMusicPhysical());
  }
  GeneratedDb g_;
};

TEST_F(ExplainTest, Fig3ReportsStagesDecisionsAndCounters) {
  Session session(g_.db.get(), CostBasedOptions());
  QueryOptions options;
  options.cold = true;
  options.collect_trace = true;
  obs::Counter* probed =
      obs::MetricsRegistry::Global().GetCounter("rodin.vm.pairs_probed");
  const uint64_t probed_before = probed->value();
  const ExplainResult ex = session.Explain(Fig3Query(*g_.schema, 6), options);
  ASSERT_TRUE(ex.ok()) << ex.status.ToString();

  // All four optimizer stages report.
  std::vector<std::string> stage_names;
  for (const StageReport& s : ex.stages) stage_names.push_back(s.stage);
  EXPECT_EQ(stage_names,
            (std::vector<std::string>{"rewrite", "translate", "generatePT",
                                      "transformPT"}));

  // The delayed push decision is in the log with both costed alternatives.
  bool saw_final_push = false;
  for (const PushDecision& p : ex.decisions.pushes) {
    if (p.kind != "push-vs-unpushed") continue;
    saw_final_push = true;
    EXPECT_GT(p.pushed_cost, 0);
    EXPECT_GT(p.unpushed_cost, 0);
  }
  EXPECT_TRUE(saw_final_push);
  EXPECT_GT(ex.pushed_variant_cost, 0);
  EXPECT_GT(ex.unpushed_variant_cost, 0);
  EXPECT_FALSE(ex.decisions.moves.empty());

  // Costs: a total estimate, and a measured run that produced rows.
  EXPECT_GT(ex.est_cost, 0);
  EXPECT_GT(ex.measured_cost, 0);
  EXPECT_GT(ex.counters.rows_produced, 0u);
  EXPECT_GT(ex.counters.fix_iterations, 0u);

  // Per-operator measured figures: the root executed and saw every page the
  // run touched (stats are inclusive of children).
  EXPECT_TRUE(ex.plan.executed);
  EXPECT_GT(ex.plan.measured.invocations, 0u);
  EXPECT_GT(ex.plan.measured.pages, 0u);
  EXPECT_FALSE(ex.plan.children.empty());

  // The trace covers the optimizer stages and execution.
  ASSERT_NE(ex.trace, nullptr);
  if (obs::kObsEnabled) {
    EXPECT_TRUE(ex.trace->HasSpan("rewrite"));
    EXPECT_TRUE(ex.trace->HasSpan("translate"));
    EXPECT_TRUE(ex.trace->HasSpan("generatePT"));
    EXPECT_TRUE(ex.trace->HasSpan("transformPT"));
    EXPECT_TRUE(ex.trace->HasSpan("execute"));
    EXPECT_NE(ex.trace->ToChromeJson().find("push-vs-unpushed"),
              std::string::npos);
    // The fixpoint's join looks its matches up in the inner memo's key
    // index; the execute span reports the pairs the probe decided.
    const uint64_t pairs_probed = probed->value() - probed_before;
    EXPECT_GT(pairs_probed, 0u);
    size_t spans = 0;
    for (const obs::TraceEvent& event : ex.trace->events()) {
      if (event.name != "execute") continue;
      ++spans;
      const std::map<std::string, std::string> args(event.args.begin(),
                                                    event.args.end());
      ASSERT_EQ(args.count("pairs_probed"), 1u);
      EXPECT_EQ(args.at("pairs_probed"), std::to_string(pairs_probed));
    }
    EXPECT_EQ(spans, 1u);
  }
}

// est_cost is cumulative for Proj and Union parents (Figure 5 composes
// child cost into them); index-access Sel / index-join EJ deliberately do
// not charge their child's scan, so the assertion is restricted.
void CheckMonotone(const ExplainNode& node) {
  const bool cumulative = node.label.rfind("Proj", 0) == 0 ||
                          node.label.rfind("Union", 0) == 0;
  for (const ExplainNode& child : node.children) {
    if (cumulative && node.est_cost >= 0 && child.est_cost >= 0) {
      EXPECT_GE(node.est_cost, child.est_cost)
          << node.label << " cheaper than its child " << child.label;
    }
    CheckMonotone(child);
  }
}

TEST_F(ExplainTest, EstimatedCostsAreMonotoneOnCumulativeParents) {
  Session session(g_.db.get(), CostBasedOptions());
  QueryOptions options;
  options.explain_only = true;
  const ExplainResult ex = session.Explain(Fig3Query(*g_.schema, 6), options);
  ASSERT_TRUE(ex.ok()) << ex.status.ToString();
  // The root's estimate is the plan total the optimizer reported.
  EXPECT_DOUBLE_EQ(ex.plan.est_cost, ex.est_cost);
  EXPECT_FALSE(ex.plan.executed);  // explain_only skips execution
  EXPECT_DOUBLE_EQ(ex.measured_cost, -1);
  CheckMonotone(ex.plan);
}

std::map<std::string, double> SearchCounterValues() {
  std::map<std::string, double> out;
  for (const obs::MetricsRegistry::Sample& s :
       obs::MetricsRegistry::Global().Samples()) {
    if (s.name.rfind("rodin.search.", 0) == 0) out[s.name] = s.value;
  }
  return out;
}

TEST_F(ExplainTest, SearchMetricsIdenticalAcrossThreadCounts) {
  if (!obs::kObsEnabled) GTEST_SKIP() << "observability compiled out";
  const QueryGraph query = Fig3Query(*g_.schema, 6);
  std::map<std::string, double> deltas[2];
  const size_t thread_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    Session session(g_.db.get(), CostBasedOptions());
    QueryOptions options;
    options.explain_only = true;
    options.search_threads = thread_counts[i];
    options.seed = 7;
    const std::map<std::string, double> before = SearchCounterValues();
    const ExplainResult ex = session.Explain(query, options);
    ASSERT_TRUE(ex.ok()) << ex.status.ToString();
    for (const auto& [name, value] : SearchCounterValues()) {
      const auto it = before.find(name);
      deltas[i][name] = value - (it == before.end() ? 0 : it->second);
    }
  }
  ASSERT_FALSE(deltas[0].empty());
  EXPECT_GT(deltas[0].at("rodin.search.moves_tried"), 0);
  // Restart-level parallelism with index-derived RNG streams: the search
  // does identical work at any thread count.
  EXPECT_EQ(deltas[0], deltas[1]);
}

TEST_F(ExplainTest, GoldenReport) {
  Session session(g_.db.get(), CostBasedOptions());
  QueryOptions options;
  options.cold = true;
  const ExplainResult ex = session.Explain(Fig3Query(*g_.schema, 6), options);
  ASSERT_TRUE(ex.ok()) << ex.status.ToString();
  const std::string got = NormalizeNumbers(ex.ToString());

  if (std::getenv("RODIN_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath());
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
    out << got;
    GTEST_SKIP() << "golden file regenerated";
  }

  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << "missing golden file " << GoldenPath()
                         << " (run with RODIN_UPDATE_GOLDEN=1 to create)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str());
}

}  // namespace
}  // namespace rodin
