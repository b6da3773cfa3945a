#ifndef RODIN_API_QUERY_OPTIONS_H_
#define RODIN_API_QUERY_OPTIONS_H_

#include <cstdint>
#include <optional>

#include "common/query_context.h"
#include "common/status.h"
#include "exec/executor.h"

namespace rodin {

/// The adaptive-feedback knob block (one per-query surface for the feedback
/// loop, see cost/feedback.h and DESIGN.md §8), following the facade's
/// inherit/override rule: the optional is a tri-state override and the
/// numeric knobs use 0 / disengaged = inherit (an explicit 0 would be
/// meaningless for either — a drift threshold must exceed 1 and an EWMA
/// weight of 0 would learn nothing, so 0 can double as the sentinel here
/// without making any legal value unreachable).
struct FeedbackOptions {
  /// Harvest measured cardinalities from this run and cost this run's
  /// optimization with the learned corrections (nullopt = the RODIN_FEEDBACK
  /// environment default, off unless set). Feedback never changes results,
  /// only plans; faulted, truncated and cancelled runs never contribute.
  std::optional<bool> enabled;
  /// Demote a *cached* plan when measured cost drifts this many times from
  /// its estimate, in either direction (0 = inherit the engine default,
  /// kDefaultDriftThreshold; set values must be > 1).
  double drift_threshold = 0;
  /// EWMA weight of one run's observation in a correction factor (0 =
  /// inherit kDefaultFeedbackAlpha; set values must be in (0, 1]).
  double ewma_alpha = 0;
};

/// The one per-query knob surface of the embedding API.
///
/// Before this facade there were three overlapping places to say how a query
/// should run: a session-level options struct, ExecOptions (executor-level,
/// with its own defaults) and the QueryContext plumbed separately by pointer.
/// QueryOptions collapses them: every session entry point (Run / Explain /
/// Query / PreparedQuery::*, and the server's wire requests) takes exactly
/// this struct, and ExecOptions survives only as the *lowered* internal form
/// that QueryOptions::MakeExecOptions derives — user code never constructs
/// one unless it drives a raw Executor (tests, benches).
///
/// The single inherit/override rule, uniform across every knob:
///
///   - a plain field (cold, hash_equijoin, ...) is taken literally;
///   - an std::optional field is an *override*: nullopt means "inherit the
///     session / executor / environment default", and an engaged value is
///     taken literally — including 0, which for `seed` is a legal seed and
///     for the thread/batch knobs is a usage error rejected with
///     Status::Code::kInvalidArgument (0 worker threads or 0-row batches
///     cannot run). Before this, 0 doubled as the inherit sentinel, which
///     made seed 0 unreachable and made an explicit `--exec-threads 0`
///     silently mean something else;
///   - the lifecycle budget (`query`) is the only *definition* of deadline /
///     cancel / memory-budget: stages reference the armed copy by pointer,
///     never copy the fields.
///
/// Precedence for the optionals: engaged QueryOptions value > session
/// OptimizerOptions value (search_threads, seed) or executor/environment
/// default (exec_threads, batch_rows). There is no third copy anywhere.
struct QueryOptions {
  /// Start measurement from an empty buffer pool (cold run). Warm otherwise:
  /// counters reset but resident pages stay.
  bool cold = false;
  /// Attach a span tracer to the optimizer and executor; the resulting
  /// QueryRun::trace / ExplainResult::trace exports Chrome trace_event JSON.
  bool collect_trace = false;
  /// Optimize only — skip execution (answer stays empty, measured_cost -1).
  bool explain_only = false;
  /// Override the session's transformPT search parallelism (nullopt = keep
  /// the session's OptimizerOptions value; engaged 0 = kInvalidArgument).
  std::optional<size_t> search_threads;
  /// Override the session's optimizer seed (nullopt = keep; 0 is a valid
  /// seed).
  std::optional<uint64_t> seed;
  /// The run's lifecycle budget: deadline, cancel token, memory budget.
  /// Keep a copy of `query.cancel` to cancel from another thread; see
  /// QueryContext for semantics. Default: unbounded. The context always
  /// governs *this run's* execution — a plan served from the plan cache
  /// still runs under this deadline/cancel/budget.
  QueryContext query;
  /// Worker threads for the batched executor's morsel-parallel operators
  /// (nullopt = executor default, sequential; engaged 0 = kInvalidArgument).
  /// Results, counters and measured cost are identical for any value; only
  /// wall time changes.
  std::optional<size_t> exec_threads;
  /// Rows per executor batch (nullopt = executor default, 1024; engaged 0 =
  /// kInvalidArgument). Also identical accounting for any value.
  std::optional<size_t> batch_rows;
  /// Build a hash table over the inner of an equi nested-loop join. Same
  /// rows and order, but honestly different predicate/page accounting —
  /// opt-in and excluded from the accounting-identity guarantee (see
  /// ExecOptions::hash_equijoin, which this lowers onto).
  bool hash_equijoin = false;
  /// Skip the session's plan cache for this run: neither look up nor insert.
  /// The run optimizes from scratch exactly as a cache miss would.
  bool bypass_plan_cache = false;
  /// Adaptive cost feedback: measured-cardinality corrections at optimize
  /// time, harvesting after execution, drift-triggered re-optimization of
  /// cached plans (see the block's own documentation above). None of this
  /// enters the plan-cache fingerprint — flipping feedback between runs
  /// still hits the cache.
  FeedbackOptions feedback;

  /// Rejects engaged-zero thread/batch knobs (kInvalidArgument) per the
  /// override rule above. Every session entry point calls this first.
  Status Validate() const;

  /// Lowers the executor-relevant knobs onto the engine's ExecOptions.
  /// Disengaged optionals keep the executor defaults. `armed` is the run's
  /// *armed* QueryContext (owned by the caller for the duration of the
  /// execution), referenced — not copied — per the single-source-of-truth
  /// rule. This is the only place the mapping exists.
  ExecOptions MakeExecOptions(const QueryContext* armed) const;
};

}  // namespace rodin

#endif  // RODIN_API_QUERY_OPTIONS_H_
