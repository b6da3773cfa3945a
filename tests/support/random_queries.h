// Seeded random query generators over the music schema, shared by the
// differential suites (exec_differential_test, spill_test). The same Rng
// state always yields the same query.

#ifndef RODIN_TESTS_SUPPORT_RANDOM_QUERIES_H_
#define RODIN_TESTS_SUPPORT_RANDOM_QUERIES_H_

#include "catalog/schema.h"
#include "common/rng.h"
#include "query/query_graph.h"

namespace rodin {

/// One to three Composer inputs chained on `master`, one to three
/// selections (birthyear range, instrument family or name, master's name).
QueryGraph RandomSpjQuery(Rng* rng, const Schema& schema);

/// The Influencer recursion (paper Fig. 3's view) under a random answer
/// filter on generation and the master's instruments or birthyear.
QueryGraph RandomRecursiveQuery(Rng* rng, const Schema& schema);

}  // namespace rodin

#endif  // RODIN_TESTS_SUPPORT_RANDOM_QUERIES_H_
