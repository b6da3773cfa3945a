#include "support/query_paths.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/session.h"
#include "support/reference_exec.h"

namespace rodin {

std::vector<std::string> SpanTree(const obs::Trace& trace) {
  std::vector<std::string> out;
  for (const obs::TraceEvent& event : trace.events()) {
    if (event.dur_us < 0) continue;  // instants are not spans
    out.push_back(std::string(static_cast<size_t>(event.depth) * 2, ' ') +
                  event.name);
  }
  return out;
}

void ExpectDrainedQueryMatchesRun(Database* db, const OptimizerOptions& options,
                                  const QueryGraph& graph) {
  for (const bool feedback : {false, true}) {
    SCOPED_TRACE(feedback ? "feedback on" : "feedback off");
    QueryOptions query_options;
    query_options.cold = true;
    query_options.feedback.enabled = feedback;
    Session run_side(db, options);
    Session query_side(db, options);
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const QueryRun run = run_side.Run(graph, query_options);
      ASSERT_TRUE(run.ok()) << run.error();
      ResultCursor cursor = query_side.Query(graph, query_options);
      const Table drained = cursor.ToTable();
      ASSERT_TRUE(cursor.ok()) << cursor.error();

      ASSERT_EQ(drained.rows, run.answer.rows);
      ExpectSameCounters(cursor.counters(), run.counters);
      EXPECT_EQ(cursor.measured_cost(), run.measured_cost);  // bitwise
      EXPECT_EQ(cursor.plan_text(), run.plan_text);

      const uint64_t version = run_side.txn().stats_version();
      EXPECT_EQ(query_side.feedback_registry().Snapshot(version).factors(),
                run_side.feedback_registry().Snapshot(version).factors());
      const FeedbackStats got = query_side.feedback_registry().stats();
      const FeedbackStats want = run_side.feedback_registry().stats();
      EXPECT_EQ(got.observations, want.observations);
      EXPECT_EQ(got.corrections, want.corrections);
      EXPECT_EQ(got.demotions, want.demotions);
    }
    QueryOptions probe = query_options;
    probe.explain_only = true;
    const QueryRun from_run = run_side.Run(graph, probe);
    const QueryRun from_query = query_side.Run(graph, probe);
    ASSERT_TRUE(from_run.ok()) << from_run.error();
    ASSERT_TRUE(from_query.ok()) << from_query.error();
    EXPECT_EQ(from_query.plan_cached, from_run.plan_cached);
    EXPECT_EQ(from_query.decisions.ToString(), from_run.decisions.ToString());
  }
}

}  // namespace rodin
