#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// One Session alternating two prepared recursive queries (Fig. 3, where
/// pushing the selection wins, and its unselective twin, where it loses)
/// over the music DB at size 400: plans come from the cache and execution
/// dominates.
Outcome RunFig3Recursive(const RunOptions& options);

/// One Session fed distinct generated ad-hoc texts over a small music DB:
/// every acquisition misses the plan cache, so parse and optimization
/// dominate.
Outcome RunAdhocOptimize(const RunOptions& options);

/// An in-process server with three closed-loop reader connections and one
/// open-loop writer re-pointing Composer.master under a materialized
/// Influencer closure.
Outcome RunServeRw(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
