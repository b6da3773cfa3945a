#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "cost/feedback.h"
#include "exec/executor.h"
#include "stats.h"

namespace perfbench {

void Outcome::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 5) errors.push_back(what);
}

void SummarizeLatency(std::vector<double> ms, const std::string& prefix,
                      bool with_p99, Outcome* out) {
  std::sort(ms.begin(), ms.end());
  out->Note(prefix + ".samples", static_cast<double>(ms.size()), "count");
  std::vector<std::pair<int, std::string>> wanted = {{500, "_p50_ms"},
                                                     {900, "_p90_ms"}};
  if (with_p99) wanted.push_back({990, "_p99_ms"});
  for (const auto& [permille, suffix] : wanted) {
    const std::optional<double> v = Percentile(ms, permille);
    if (!v) {
      std::fprintf(stderr, "perfbench: %zu samples cannot support %s%s\n",
                   ms.size(), prefix.c_str(), suffix.c_str());
      continue;
    }
    out->Note(prefix + suffix, *v, "ms");
    out->Note(prefix + suffix + ".beyond",
              static_cast<double>(SamplesBeyond(ms.size(), permille)),
              "count");
  }
}

void Die(const std::string& what, const rodin::Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(1);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

double MedianSetupSeconds(int times, const std::function<void()>& build) {
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    const int64_t start = NowNs();
    build();
    seconds.push_back((NowNs() - start) / 1e9);
  }
  return *Median(seconds);
}

rodin::Status TracedQuery(rodin::Session* session,
                          const rodin::CostParams& cost_params,
                          const std::string& text, SpanLog* log,
                          uint64_t trace_id, bool count_pass,
                          LayerTotals* totals, uint64_t* digest) {
  const int root = log->Begin("request", "bench", trace_id, -1, 0);
  auto finish = [&](rodin::Status st) {
    totals->query_us += log->End(root);
    ++totals->queries;
    if (count_pass) ++totals->count_queries;
    return st;
  };

  int span = log->Begin("Session::Prepare", "query", trace_id, root, 0);
  rodin::PreparedQuery pq = session->Prepare(text);
  totals->parse_us += log->End(span);
  if (!pq.ok()) return finish(pq.status());

  rodin::QueryOptions explain_only;
  explain_only.explain_only = true;
  span = log->Begin("PreparedQuery::Run(explain_only)", "api", trace_id, root,
                    0);
  rodin::QueryRun planned = pq.Run(explain_only);
  const double acquire_us = log->End(span);
  totals->acquire_us += acquire_us;
  if (!planned.ok()) return finish(planned.status);
  const rodin::OptimizeResult& opt = planned.optimized;
  if (!planned.plan_cached) {
    totals->optimize_us += acquire_us;
    for (const rodin::StageReport& s : opt.stages) {
      totals->stage_us[s.stage] += s.micros;
    }
  }
  // A cache hit replays the original optimization's decision log, so the
  // ratio is weighted by plan acquisitions, hit or miss.
  totals->moves_tried += planned.decisions.moves.size();
  totals->moves_accepted += planned.decisions.moves_accepted();

  rodin::Executor exec(&session->db(), cost_params);
  exec.CollectOpStats(true);
  exec.ResetMeasurement(false);  // also zeroes the buffer pool's counters
  rodin::BufferPool& pool = session->db().buffer_pool();
  const rodin::BufferPool::Stats before = pool.stats();
  rodin::Table answer;
  span = log->Begin("Executor::ExecuteInto", "exec", trace_id, root, 0);
  const rodin::Status st =
      exec.ExecuteInto(*opt.plan, rodin::ExecOptions{}, &answer);
  totals->execute_us += log->End(span);
  const rodin::BufferPool::Stats after = pool.stats();
  if (!st.ok()) return finish(st);

  const uint64_t fetches = after.fetches - before.fetches;
  const uint64_t misses = after.misses - before.misses;
  totals->fetches += fetches;
  totals->hits += after.hits - before.hits;
  for (const auto& [kind, us] : SelfMicrosByKind(*opt.plan, exec.op_stats())) {
    totals->self_us[kind] += us;
  }
  const std::vector<rodin::PlanNodeStats> nodes =
      rodin::FlattenPlanStats(*opt.plan, exec.op_stats());
  if (!nodes.empty() && nodes[0].executed && nodes[0].est_rows >= 0) {
    // +1 on both sides keeps empty answers finite.
    const double est = nodes[0].est_rows + 1;
    const double got = static_cast<double>(nodes[0].measured_rows) + 1;
    totals->qerror.push_back(std::max(est / got, got / est));
  }
  const double measured = exec.MeasuredCost();
  if (measured > 0) totals->est_over_measured.push_back(opt.cost / measured);
  if (count_pass) {
    const rodin::ExecCounters& c = exec.counters();
    totals->plans_explored += opt.plans_explored;
    totals->predicate_evals += c.predicate_evals;
    totals->fix_iterations += c.fix_iterations;
    totals->rows_produced += c.rows_produced;
    totals->page_fetches += fetches;
    totals->page_misses += misses;
  }
  *digest = AnswerDigest(answer.rows);
  return finish(rodin::Status::Ok());
}

double MeanRootSelfMicros(const SpanLog& log, const std::string& name) {
  const std::vector<Span>& spans = log.spans();
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[static_cast<size_t>(s.parent)].push_back(s.time);
  }
  double total_ns = 0;
  size_t roots = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0 || spans[i].name != name) continue;
    total_ns += static_cast<double>(SelfTime(spans[i].time, children[i]));
    ++roots;
  }
  return roots == 0 ? 0.0 : total_ns / 1e3 / static_cast<double>(roots);
}

void EmitLayerMetrics(const LayerTotals& t, Outcome* out) {
  const double n = std::max<double>(1, static_cast<double>(t.queries));
  const double k = std::max<double>(1, static_cast<double>(t.count_queries));
  auto stage = [&](const char* name) {
    auto it = t.stage_us.find(name);
    return it == t.stage_us.end() ? 0.0 : it->second / n;
  };
  auto self = [&](const char* kind) {
    auto it = t.self_us.find(kind);
    return it == t.self_us.end() ? 0.0 : it->second / n;
  };
  out->Set("trace.query_us", t.query_us / n, "us");
  out->Set("query.parse_us", t.parse_us / n, "us");
  out->Set("api.plan_acquire_us", t.acquire_us / n, "us");
  out->Set("optimizer.optimize_us", t.optimize_us / n, "us");
  out->Set("optimizer.rewrite_us", stage("rewrite"), "us");
  out->Set("optimizer.translate_us", stage("translate"), "us");
  out->Set("optimizer.generatePT_us", stage("generatePT"), "us");
  out->Set("optimizer.transformPT_us", stage("transformPT"), "us");
  out->Set("optimizer.plans_explored",
           static_cast<double>(t.plans_explored) / k, "count");
  out->Set("optimizer.move_accept_ratio",
           t.moves_tried == 0 ? 0.0
                              : static_cast<double>(t.moves_accepted) /
                                    static_cast<double>(t.moves_tried),
           "ratio");
  out->Set("cost.card_qerror_median", Median(t.qerror).value_or(0), "ratio");
  out->Set("cost.est_over_measured", Median(t.est_over_measured).value_or(0),
           "ratio");
  out->Set("exec.execute_us", t.execute_us / n, "us");
  out->Set("exec.predicate_evals", static_cast<double>(t.predicate_evals) / k,
           "count");
  out->Set("exec.fix_iterations", static_cast<double>(t.fix_iterations) / k,
           "count");
  out->Set("exec.evals_per_output_row",
           t.rows_produced == 0 ? 0.0
                                : static_cast<double>(t.predicate_evals) /
                                      static_cast<double>(t.rows_produced),
           "ratio");
  for (const char* kind : {"EJ", "IJ", "Sel", "Proj", "Fix", "Entity"}) {
    out->Set(std::string("exec.self_us.") + kind, self(kind), "us");
  }
  out->Set("storage.page_fetches", static_cast<double>(t.page_fetches) / k,
           "count");
  out->Set("storage.page_misses", static_cast<double>(t.page_misses) / k,
           "count");
  out->Set("storage.hit_ratio",
           t.fetches == 0 ? 0.0
                          : static_cast<double>(t.hits) /
                                static_cast<double>(t.fetches),
           "ratio");
  out->Set("storage.ns_per_fetch",
           t.fetches == 0 ? 0.0
                          : t.execute_us * 1e3 / static_cast<double>(t.fetches),
           "ns");
  out->Set("trace.exec_share", t.query_us > 0 ? t.execute_us / t.query_us : 0,
           "ratio");
  out->Set("trace.parse_optimize_share",
           t.query_us > 0 ? (t.parse_us + t.optimize_us) / t.query_us : 0,
           "ratio");
  // Layers only serve_rw reaches; it overwrites them.
  for (const char* name :
       {"api.plan_acquire_after_commit_us", "txn.commit_us",
        "server.read_rtt_us", "server.wire_overhead_us"}) {
    out->Set(name, 0, "us");
  }
  out->Set("txn.views_maintained", 0, "count");
  out->Set("server.shed", 0, "count");
  out->Set("server.commit_conflicts", 0, "count");
  out->Set("server.rows_streamed", 0, "count");
  out->Set("load.writer_late_ms", 0, "ms");
}

void EmitPlanCacheMetrics(const rodin::PlanCacheStats& before,
                          const rodin::PlanCacheStats& after, Outcome* out) {
  const uint64_t hits = after.hits - before.hits;
  const uint64_t lookups = hits + (after.misses - before.misses);
  out->Set("api.plan_cache.hit_ratio",
           lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups),
           "ratio");
  out->Set("api.plan_cache.invalidations",
           static_cast<double>(after.invalidations - before.invalidations),
           "count");
  out->Note("api.plan_cache.lookups", static_cast<double>(lookups), "count");
}

}  // namespace perfbench
