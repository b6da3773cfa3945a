// The one-query-path differential: Session::Run is the cursor that
// Session::Query returns, drained, so the two must agree on everything a
// run reports. Shared by the plan-cache corpus and the tutorial suite.

#ifndef RODIN_TESTS_SUPPORT_QUERY_PATHS_H_
#define RODIN_TESTS_SUPPORT_QUERY_PATHS_H_

#include <string>
#include <vector>

#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "query/query_graph.h"
#include "storage/database.h"

namespace rodin {

/// The trace's spans as an indented list of names: names and nesting, no
/// timings or arguments. A traced cursor and a traced Run of one query
/// must give the same list.
std::vector<std::string> SpanTree(const obs::Trace& trace);

/// Runs `graph` through Session::Run in one session and through a drained
/// Session::Query in a twin session (each with its own plan cache and
/// feedback registry), feedback off and on, three cold rounds each: a miss,
/// then hits that feedback may demote and re-optimize. Every round must
/// give the same rows in the same order, every ExecCounters field, the
/// measured cost and the plan text, and leave the two feedback registries
/// identical. A final explain_only probe on each side (a cache replay) must
/// show the same decision log.
void ExpectDrainedQueryMatchesRun(Database* db, const OptimizerOptions& options,
                                  const QueryGraph& graph);

}  // namespace rodin

#endif  // RODIN_TESTS_SUPPORT_QUERY_PATHS_H_
