// What the workloads share: the run's options and outcome, latency
// summaries, and the traced split of one query into its layer calls.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/session.h"
#include "cost/params.h"
#include "spans.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace path of a traced run
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// One run's result. `metrics` is what the final JSON line carries (the
/// end-to-end metrics untraced, the per-layer metrics traced); `report` adds
/// the workload-specific figures and the sample counts behind percentiles.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> report;
  std::vector<std::string> errors;  // first few failures, for stderr

  void Fail(const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Note(const std::string& name, double value, const std::string& unit) {
    report[name] = {value, unit};
  }
  /// Copies a noted figure into the metrics, if it was noted.
  void Promote(const std::string& name) {
    auto it = report.find(name);
    if (it != report.end()) metrics[name] = it->second;
  }
};

/// Notes `<prefix>_p50_ms`, `_p90_ms` and (when `with_p99`) `_p99_ms` of
/// `ms` in `report`, with the sample count and the samples beyond each
/// percentile. A percentile the samples cannot support (fewer than 10
/// beyond it) is left out, with a line on stderr.
void SummarizeLatency(std::vector<double> ms, const std::string& prefix,
                      bool with_p99, Outcome* out);

/// Set-up failures end the run: prints `what` and the status, exits 1.
[[noreturn]] void Die(const std::string& what, const rodin::Status& st);

/// Peak resident set size of this process, in MB (VmHWM).
double PeakRssMb();

/// Runs `build` `times` times, each from scratch, and returns the median
/// wall time in seconds. `build` keeps whatever it constructs last.
double MedianSetupSeconds(int times, const std::function<void()>& build);

/// Per-layer totals of a traced run. Times accumulate over every traced
/// query and are reported as per-query means, so the layer shares add up;
/// the deterministic counts accumulate over the fixed count pass only (a
/// prefix of the seeded stream), so two runs of one seed repeat them
/// exactly.
struct LayerTotals {
  uint64_t queries = 0;
  double query_us = 0;  // whole traced request
  double parse_us = 0;
  double acquire_us = 0;
  double optimize_us = 0;  // acquisitions that missed the plan cache
  std::map<std::string, double> stage_us;  // StageReport::micros, misses only
  double execute_us = 0;
  std::map<std::string, double> self_us;   // operator self time by kind
  uint64_t moves_tried = 0;
  uint64_t moves_accepted = 0;
  std::vector<double> qerror;
  std::vector<double> est_over_measured;
  uint64_t fetches = 0;
  uint64_t hits = 0;

  uint64_t count_queries = 0;
  uint64_t plans_explored = 0;
  uint64_t predicate_evals = 0;
  uint64_t fix_iterations = 0;
  uint64_t rows_produced = 0;
  uint64_t page_fetches = 0;
  uint64_t page_misses = 0;
};

/// Runs `text` the traced way: Session::Prepare, then PreparedQuery::Run
/// with explain_only (plan acquisition), then Executor::ExecuteInto on the
/// acquired plan with per-operator stats, each call in its own span under
/// one root span of `trace_id`. Adds to `totals` (to its count pass too when
/// `count_pass`). Returns the status and, when ok, the answer digest.
rodin::Status TracedQuery(rodin::Session* session,
                          const rodin::CostParams& cost_params,
                          const std::string& text, SpanLog* log,
                          uint64_t trace_id, bool count_pass,
                          LayerTotals* totals, uint64_t* digest);

/// Mean self time, in microseconds, of the root spans named `name`: each
/// one's duration minus what its child spans cover. For the traced
/// "request" spans this is the benchmark's own share of a request.
double MeanRootSelfMicros(const SpanLog& log, const std::string& name);

/// Emits every per-layer metric of `totals` into `out->metrics`. Metrics of
/// layers the workload does not reach stay at 0 until the caller sets them.
void EmitLayerMetrics(const LayerTotals& totals, Outcome* out);

/// Plan-cache lookups between two PlanCache::stats() snapshots.
void EmitPlanCacheMetrics(const rodin::PlanCacheStats& before,
                          const rodin::PlanCacheStats& after, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
