// fig3_recursive and adhoc_optimize: one Session in a closed loop with one
// client. They differ in the database size and in where each operation's
// text comes from.
#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/session.h"
#include "gen.h"
#include "optimizer/baseline.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

// A p90 needs 10 samples beyond it; the timed loop runs past its deadline
// until it has them (unless operations keep failing).
constexpr size_t kMinTimedOps = 100;
// Share of a traced run spent traced; the rest measures the same operations
// untraced, which gives the tracing overhead.
constexpr double kTracedShare = 0.75;
constexpr size_t kOracleThreads = 3;

using TextSource = std::function<std::string()>;

struct SessionWorkload {
  uint32_t db_size = 0;
  /// Set-ups per run; setup_s is their median. Cheap set-ups repeat more
  /// so the median is taken over about a second of work.
  int setup_repeats = 0;
  /// Operations run during set-up (plans cached, pages resident).
  size_t warmup_ops = 0;
  /// Length of the fixed prefix of the stream that plan_cost_units and the
  /// deterministic per-layer counts are taken over.
  size_t count_pass = 0;
  /// fig3_recursive runs PreparedQuery handles; adhoc_optimize sends each
  /// text through Session::Run, so parsing is part of every operation.
  bool prepared = false;
  /// Data-generation seed of a fixed database; 0 = the run's seed.
  uint64_t data_seed = 0;
  std::function<TextSource(uint64_t seed)> make_source;
};

SessionWorkload Fig3Workload() {
  SessionWorkload w;
  w.db_size = 250;
  w.setup_repeats = 5;
  w.warmup_ops = 2;
  w.count_pass = 2;
  w.prepared = true;
  w.make_source = [](uint64_t) {
    auto turn = std::make_shared<uint64_t>(0);
    return [turn]() -> std::string {
      return (*turn)++ % 2 == 0 ? kFig3Query : kUnselectiveQuery;
    };
  };
  return w;
}

SessionWorkload AdhocWorkload() {
  SessionWorkload w;
  w.db_size = 20;
  w.setup_repeats = 25;
  w.warmup_ops = 8;
  w.count_pass = 2000;
  w.prepared = false;
  // At 20 composers one seed's data alone moves query costs by ~20%, so the
  // database is fixed and the seed varies only the query stream.
  w.data_seed = 42;
  w.make_source = [size = w.db_size](uint64_t seed) {
    auto stream = std::make_shared<AdhocStream>(seed, size);
    return [stream]() { return stream->Next(); };
  };
  return w;
}

struct Fixture {
  std::unique_ptr<rodin::EngineHandle> engine;
  std::unique_ptr<rodin::Session> session;
  std::map<std::string, rodin::PreparedQuery> prepared;
  TextSource next_text;
};

rodin::QueryRun RunOp(Fixture* f, bool prepared, const std::string& text,
                      const rodin::QueryOptions& options = {}) {
  if (!prepared) return f->session->Run(text, options);
  auto it = f->prepared.find(text);
  if (it == f->prepared.end()) {
    it = f->prepared.emplace(text, f->session->Prepare(text)).first;
  }
  return it->second.Run(options);
}

void Build(const SessionWorkload& w, uint64_t seed, Fixture* f) {
  rodin::EngineOptions eo;
  eo.dataset = "music";
  eo.size = w.db_size;
  eo.seed = w.data_seed != 0 ? w.data_seed : seed;
  rodin::Status st;
  f->engine = rodin::EngineHandle::Create(eo, &st);
  if (f->engine == nullptr) Die("engine", st);
  f->session = f->engine->NewSession();
  f->next_text = w.make_source(seed);
  for (size_t i = 0; i < w.warmup_ops; ++i) {
    const rodin::QueryRun r = RunOp(f, w.prepared, f->next_text());
    if (!r.ok()) Die("warm-up", r.status);
  }
}

/// Compares every recorded answer with the naive baseline optimizer's plan
/// of the same text, run after the timed loop. The distinct texts are split
/// over a few threads, each with its own multi-tenant naive Session.
void CheckAnswers(Fixture* f, uint64_t seed,
                  const std::vector<std::pair<std::string, uint64_t>>& answers,
                  Outcome* out) {
  std::map<std::string, size_t> index;
  std::vector<std::string> texts;
  for (const auto& [text, digest] : answers) {
    if (index.emplace(text, texts.size()).second) texts.push_back(text);
  }
  std::vector<uint64_t> expected(texts.size(), 0);
  std::vector<std::string> errors(texts.size());
  const size_t nthreads = std::min<size_t>(
      {kOracleThreads, std::max(1u, std::thread::hardware_concurrency()),
       texts.size()});
  std::vector<std::thread> threads;
  for (size_t t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      rodin::Session naive(f->engine->db(), rodin::NaiveOptions(seed),
                           f->engine->cost_params());
      naive.set_shared_db(true);
      for (size_t i = t; i < texts.size(); i += nthreads) {
        const rodin::QueryRun r = naive.Run(texts[i]);
        if (r.ok()) {
          expected[i] = AnswerDigest(r.answer.rows);
        } else {
          errors[i] = "oracle failed: " + r.status.ToString();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& [text, digest] : answers) {
    const size_t i = index[text];
    if (!errors[i].empty() || expected[i] != digest) {
      out->correct = false;
      out->Fail(errors[i].empty() ? "wrong answer for: " + text : errors[i]);
    }
  }
}

/// Sum of measured cost over the count pass, each query run cold so the
/// figure does not depend on what ran before.
double PlanCostUnits(const SessionWorkload& w, uint64_t seed, Fixture* f,
                     Outcome* out) {
  TextSource source = w.make_source(seed);
  rodin::QueryOptions cold;
  cold.cold = true;
  double total = 0;
  for (size_t i = 0; i < w.count_pass; ++i) {
    const rodin::QueryRun r = RunOp(f, w.prepared, source(), cold);
    if (!r.ok()) {
      out->Fail("cost pass: " + r.status.ToString());
      continue;
    }
    total += r.measured_cost;
  }
  return total;
}

/// Median latency of each distinct text, q0 first: for fig3_recursive, q0 is
/// the Fig. 3 query (push wins) and q1 the unselective one (push loses).
void NotePerQueryMedians(
    const std::vector<double>& ms,
    const std::vector<std::pair<std::string, uint64_t>>& answers,
    Outcome* out) {
  std::vector<std::string> texts;
  std::map<std::string, std::vector<double>> by_text;
  for (size_t i = 0; i < ms.size(); ++i) {
    const std::string& text = answers[i].first;
    if (by_text.count(text) == 0) texts.push_back(text);
    by_text[text].push_back(ms[i]);
  }
  for (size_t i = 0; i < texts.size(); ++i) {
    out->Note("latency.q" + std::to_string(i) + "_p50_ms",
              *Median(by_text[texts[i]]), "ms");
  }
}

Outcome RunSessionWorkload(const SessionWorkload& w,
                           const RunOptions& options) {
  Outcome out;
  Fixture f;
  const double setup_s = MedianSetupSeconds(w.setup_repeats, [&] {
    f = Fixture();
    Build(w, options.seed, &f);
  });
  std::vector<std::pair<std::string, uint64_t>> answers;
  auto untraced_op = [&](std::vector<double>* ms) {
    const std::string text = f.next_text();
    ++out.attempted;
    const int64_t t0 = NowNs();
    const rodin::QueryRun r = RunOp(&f, w.prepared, text);
    const int64_t t1 = NowNs();
    if (!r.ok()) {
      out.Fail(r.status.ToString());
      return;
    }
    ms->push_back((t1 - t0) / 1e6);
    answers.emplace_back(text, AnswerDigest(r.answer.rows));
  };
  const int64_t budget_ns = static_cast<int64_t>(options.seconds * 1e9);

  if (!options.trace) {
    std::vector<double> ms;
    const int64_t start = NowNs();
    while (NowNs() - start < budget_ns ||
           (ms.size() < kMinTimedOps && out.failed < kMinTimedOps)) {
      untraced_op(&ms);
    }
    const double elapsed_s = (NowNs() - start) / 1e9;
    // Before the oracle and the cost pass, which are not the measured work.
    const double peak_rss_mb = PeakRssMb();
    CheckAnswers(&f, options.seed, answers, &out);
    const double cost_units = PlanCostUnits(w, options.seed, &f, &out);
    out.Set("setup_s", setup_s, "s");
    out.Set("throughput_qps", static_cast<double>(ms.size()) / elapsed_s,
            "ops/s");
    SummarizeLatency(ms, "latency", /*with_p99=*/false, &out);
    if (w.prepared) NotePerQueryMedians(ms, answers, &out);
    out.Promote("latency_p50_ms");
    out.Promote("latency_p90_ms");
    out.Set("plan_cost_units", cost_units, "cost_units");
    out.Set("peak_rss_mb", peak_rss_mb, "MB");
    return out;
  }

  SpanLog log;
  LayerTotals totals;
  const rodin::PlanCacheStats cache_before = f.engine->plan_cache()->stats();
  const int64_t start = NowNs();
  const int64_t traced_ns = static_cast<int64_t>(budget_ns * kTracedShare);
  for (uint64_t op = 0;
       NowNs() - start < traced_ns || op < w.count_pass; ++op) {
    const std::string text = f.next_text();
    ++out.attempted;
    uint64_t digest = 0;
    const rodin::Status st =
        TracedQuery(f.session.get(), f.engine->cost_params(), text, &log,
                    op + 1, op < w.count_pass, &totals, &digest);
    if (!st.ok()) {
      out.Fail(st.ToString());
      continue;
    }
    answers.emplace_back(text, digest);
  }
  const rodin::PlanCacheStats cache_after = f.engine->plan_cache()->stats();
  std::vector<double> untraced_ms;
  const int64_t untraced_start = NowNs();
  while (NowNs() - untraced_start < budget_ns - traced_ns ||
         (untraced_ms.size() < 10 && out.failed < kMinTimedOps)) {
    untraced_op(&untraced_ms);
  }
  CheckAnswers(&f, options.seed, answers, &out);

  EmitLayerMetrics(totals, &out);
  EmitPlanCacheMetrics(cache_before, cache_after, &out);
  double untraced_us = 0;
  for (double ms : untraced_ms) untraced_us += ms * 1e3;
  untraced_us /= static_cast<double>(untraced_ms.size());
  const double traced_us =
      totals.query_us / std::max<double>(1, static_cast<double>(totals.queries));
  out.Set("trace.overhead_ratio", traced_us / untraced_us - 1, "ratio");
  out.Set("trace.harness_self_us", MeanRootSelfMicros(log, "request"), "us");
  out.Note("setup_s", setup_s, "s");
  out.Note("trace.spans", static_cast<double>(log.spans().size()), "count");
  if (!options.trace_out.empty() && !log.WriteChromeTrace(options.trace_out)) {
    out.Fail("cannot write " + options.trace_out);
  }
  return out;
}

}  // namespace

Outcome RunFig3Recursive(const RunOptions& options) {
  return RunSessionWorkload(Fig3Workload(), options);
}

Outcome RunAdhocOptimize(const RunOptions& options) {
  return RunSessionWorkload(AdhocWorkload(), options);
}

}  // namespace perfbench
