// serve_rw: an in-process server over one engine. Three reader connections
// run a closed loop over a fixed read set; one writer connection commits at
// a fixed rate (open loop) and re-points Composer.master under a
// materialized Influencer closure, so every commit drains readers, bumps the
// stats version, invalidates the shared plan cache and maintains the view.
#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/session.h"
#include "gen.h"
#include "server/client.h"
#include "server/server.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Set-ups per run (each about 80 ms); setup_s is their median.
constexpr int kSetupRepeats = 11;
constexpr uint32_t kDbSize = 200;
constexpr size_t kReadSetSize = 32;
constexpr size_t kReaders = 3;
// One writer at a fixed rate, so write latency measures commit and view
// maintenance rather than contention between writers.
constexpr double kCommitsPerSecond = 20;
// How long after the run's end a write may keep retrying its commit.
constexpr int64_t kCommitGraceNs = 5'000'000'000;
constexpr double kTracedShare = 0.75;
// Embedded replay in the traced run: reads per round and a write before
// every kReplayWriteEvery-th read.
constexpr size_t kReplayRounds = 2;
constexpr size_t kReplayWriteEvery = 8;
const char* const kView = "influencer";

struct Fixture {
  std::unique_ptr<rodin::EngineHandle> engine;
  /// Embedded session: set-up digests, plan-cost pass, post-drain checks
  /// and the traced replay. Used only while the server is idle or stopped.
  std::unique_ptr<rodin::Session> session;
  std::vector<std::string> reads;
  std::vector<uint64_t> expected;  // answer digest per read text
  uint32_t composer_class = 0;
  std::unique_ptr<rodin::server::Server> server;
  std::vector<rodin::server::Client> readers;
  rodin::server::Client writer;
};

void Build(uint64_t seed, Fixture* f) {
  rodin::EngineOptions eo;
  eo.dataset = "music";
  eo.size = kDbSize;
  eo.seed = seed;
  rodin::Status st;
  f->engine = rodin::EngineHandle::Create(eo, &st);
  if (f->engine == nullptr) Die("engine", st);
  f->session = f->engine->NewSession();
  st = f->session->Materialize({kView, "Composer", "", "master"});
  if (!st.ok()) Die("materialize", st);
  f->composer_class = f->engine->schema().FindClass("Composer")->id();
  f->reads = ServeReadSet(seed, kDbSize, kReadSetSize);
  for (const std::string& text : f->reads) {
    const rodin::QueryRun r = f->session->Run(text);
    if (!r.ok()) Die("read set", r.status);
    f->expected.push_back(AnswerDigest(r.answer.rows));
  }
  rodin::server::ServerOptions so;
  so.workers = std::max(1u, std::thread::hardware_concurrency());
  f->server = rodin::server::Server::Start(f->engine.get(), so, &st);
  if (f->server == nullptr) Die("server", st);
  f->readers.resize(kReaders);
  for (size_t i = 0; i < kReaders; ++i) {
    st = f->readers[i].Connect("127.0.0.1", f->server->port());
    if (!st.ok()) Die("connect", st);
    const rodin::server::ClientResult r = f->readers[i].Query(f->reads[i]);
    if (!r.ok()) Die("warm-up", r.status);
  }
  st = f->writer.Connect("127.0.0.1", f->server->port());
  if (!st.ok()) Die("connect", st);
}

rodin::MutationBatch RepointBatch(const Fixture& f, const Repoint& rp) {
  rodin::MutationBatch batch;
  batch.Update("Composer", rodin::Oid{f.composer_class, rp.composer},
               {{"master", rodin::Value::Ref(
                               rodin::Oid{f.composer_class, rp.master})}});
  return batch;
}

struct ReaderStats {
  std::vector<double> ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::string first_error;
  // Round trips by read-set index, for the wire overhead.
  std::vector<double> rtt_us_sum = std::vector<double>(kReadSetSize, 0);
  std::vector<uint64_t> rtt_count = std::vector<uint64_t>(kReadSetSize, 0);
  double traced_us = 0, untraced_us = 0;
  uint64_t traced_n = 0, untraced_n = 0;
  SpanLog log;
};

struct WriterStats {
  std::vector<double> ms;
  std::vector<double> late_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  SpanLog log;
};

void SleepUntil(int64_t ns) {
  const int64_t now = NowNs();
  if (now < ns) std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now));
}

void ReaderLoop(Fixture* f, size_t index, uint64_t seed, int64_t start,
                int64_t traced_end, int64_t end, ReaderStats* s) {
  SeededRng rng(seed * 131 + index + 1);
  const uint32_t lane = static_cast<uint32_t>(index + 1);
  SleepUntil(start);
  for (uint64_t k = 1; NowNs() < end; ++k) {
    const size_t q = rng.Below(kReadSetSize);
    const bool traced = NowNs() < traced_end;
    const int span = traced ? s->log.Begin("Client::Query", "server",
                                           (uint64_t{lane} << 40) | k, -1, lane)
                            : -1;
    ++s->attempted;
    const int64_t t0 = NowNs();
    const rodin::server::ClientResult r = f->readers[index].Query(f->reads[q]);
    const double us = (NowNs() - t0) / 1e3;
    if (span >= 0) s->log.End(span);
    const bool wrong = r.ok() && AnswerDigest(r.rows) != f->expected[q];
    if (!r.ok() || wrong) {
      ++s->failed;
      s->wrong += wrong ? 1 : 0;
      if (s->first_error.empty()) {
        s->first_error =
            r.ok() ? "wrong answer for: " + f->reads[q] : r.status.ToString();
      }
      continue;
    }
    s->ms.push_back(us / 1e3);
    s->rtt_us_sum[q] += us;
    ++s->rtt_count[q];
    (traced ? s->traced_us : s->untraced_us) += us;
    ++(traced ? s->traced_n : s->untraced_n);
  }
}

void WriterLoop(Fixture* f, uint64_t seed, int64_t start, int64_t traced_end,
                int64_t end, WriterStats* s) {
  SeededRng rng(seed ^ 0x3717eull);
  const int64_t interval = static_cast<int64_t>(1e9 / kCommitsPerSecond);
  const uint32_t lane = kReaders + 1;
  for (uint64_t k = 0;; ++k) {
    const int64_t due = start + static_cast<int64_t>(k) * interval;
    if (due >= end) break;
    SleepUntil(due);
    s->late_ms.push_back((NowNs() - due) / 1e6);
    const bool traced = due < traced_end;
    const int span = traced ? s->log.Begin("Client::Mutate+Commit", "server",
                                           (uint64_t{lane} << 40) | (k + 1),
                                           -1, lane)
                            : -1;
    ++s->attempted;
    rodin::Status st = f->writer.Mutate(RepointBatch(*f, NextRepoint(&rng, kDbSize)));
    // Commit refuses (kConflict, transaction kept open) while a reader's
    // streaming cursor is live; retry until it goes through.
    while (st.ok()) {
      st = f->writer.Commit();
      if (st.code != rodin::Status::Code::kConflict ||
          NowNs() > end + kCommitGraceNs) {
        break;
      }
      st = rodin::Status::Ok();
    }
    if (span >= 0) s->log.End(span);
    if (!st.ok()) {
      ++s->failed;
      if (s->first_error.empty()) s->first_error = st.ToString();
      continue;
    }
    s->ms.push_back((NowNs() - due) / 1e6);
  }
}

/// After the server has drained: every materialized view must equal a
/// fresh recomputation, i.e. a view registered now over the same edges.
void CheckViews(Fixture* f, Outcome* out) {
  const std::string fresh = std::string(kView) + "_recomputed";
  rodin::Status st = f->session->Materialize({fresh, "Composer", "", "master"});
  std::vector<std::pair<rodin::Oid, rodin::Oid>> maintained, recomputed;
  if (st.ok()) st = f->session->MaterializedRows(kView, &maintained);
  if (st.ok()) st = f->session->MaterializedRows(fresh, &recomputed);
  if (st.ok()) st = f->session->DropMaterialized(fresh);
  if (!st.ok() || maintained != recomputed) {
    out->correct = false;
    out->Fail(st.ok() ? "materialized view differs from recomputation"
                      : "view check: " + st.ToString());
  }
  out->Note("view.pairs", static_cast<double>(maintained.size()), "count");
}

}  // namespace

Outcome RunServeRw(const RunOptions& options) {
  Outcome out;
  Fixture f;
  const double setup_s = MedianSetupSeconds(kSetupRepeats, [&] {
    f = Fixture();
    Build(options.seed, &f);
  });

  // plan_cost_units: one cold pass over the read set, before any write.
  double cost_units = 0;
  {
    rodin::QueryOptions cold;
    cold.cold = true;
    for (const std::string& text : f.reads) {
      const rodin::QueryRun r = f.session->Run(text, cold);
      if (!r.ok()) Die("cost pass", r.status);
      cost_units += r.measured_cost;
    }
  }

  const int64_t budget_ns = static_cast<int64_t>(options.seconds * 1e9);
  const int64_t traced_ns =
      options.trace ? static_cast<int64_t>(budget_ns * kTracedShare) : 0;
  const rodin::PlanCacheStats cache_before = f.engine->plan_cache()->stats();
  const rodin::server::Server::Stats server_before = f.server->stats();
  std::vector<ReaderStats> readers(kReaders);
  WriterStats writer;
  const int64_t start = NowNs() + 1'000'000;  // let every thread get going
  const int64_t traced_end = start + traced_ns;
  const int64_t end = start + budget_ns;
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kReaders; ++i) {
      threads.emplace_back(ReaderLoop, &f, i, options.seed, start, traced_end,
                           end, &readers[i]);
    }
    threads.emplace_back(WriterLoop, &f, options.seed, start, traced_end, end,
                         &writer);
    for (std::thread& t : threads) t.join();
  }
  const double elapsed_s = (NowNs() - start) / 1e9;
  const double peak_rss_mb = PeakRssMb();
  const rodin::PlanCacheStats cache_after = f.engine->plan_cache()->stats();
  const rodin::server::Server::Stats server_after = f.server->stats();
  f.server->Stop();

  std::vector<double> read_ms;
  for (ReaderStats& r : readers) {
    read_ms.insert(read_ms.end(), r.ms.begin(), r.ms.end());
    out.attempted += r.attempted;
    for (uint64_t i = 0; i < r.failed; ++i) out.Fail(r.first_error);
    if (r.wrong > 0) out.correct = false;
  }
  out.attempted += writer.attempted;
  for (uint64_t i = 0; i < writer.failed; ++i) out.Fail(writer.first_error);
  CheckViews(&f, &out);

  const uint64_t shed = server_after.admission.shed - server_before.admission.shed;
  const uint64_t conflicts =
      server_after.commit_conflicts - server_before.commit_conflicts;
  const uint64_t rows_streamed =
      server_after.rows_streamed - server_before.rows_streamed;
  out.Note("server.shed", static_cast<double>(shed), "count");
  out.Note("server.commit_conflicts", static_cast<double>(conflicts), "count");
  out.Note("writes.committed", static_cast<double>(writer.ms.size()), "count");

  if (!options.trace) {
    out.Set("setup_s", setup_s, "s");
    out.Set("throughput_qps",
            static_cast<double>(read_ms.size() + writer.ms.size()) / elapsed_s,
            "ops/s");
    SummarizeLatency(read_ms, "latency", /*with_p99=*/true, &out);
    SummarizeLatency(writer.ms, "write", /*with_p99=*/false, &out);
    out.Promote("latency_p50_ms");
    out.Promote("latency_p90_ms");
    out.Set("plan_cost_units", cost_units, "cost_units");
    out.Set("peak_rss_mb", peak_rss_mb, "MB");
    return out;
  }

  // Traced: sequential embedded replay of sampled reads and writes, split
  // into layer calls the same way as the session workloads.
  SpanLog log;
  LayerTotals totals;
  SeededRng write_rng(options.seed ^ 0x4e91a7ull);
  double commit_us = 0, after_commit_us = 0, embedded_gap_us = 0;
  uint64_t commits = 0, views_maintained = 0, after_commit_n = 0, gap_n = 0;
  uint64_t trace_id = 1u << 20;
  for (size_t round = 0; round < kReplayRounds; ++round) {
    bool just_committed = false;
    for (size_t q = 0; q < kReadSetSize; ++q) {
      if (q % kReplayWriteEvery == kReplayWriteEvery - 1) {
        const int span = log.Begin("Session::Mutate", "txn", ++trace_id, -1, 0);
        const rodin::CommitResult c = f.session->Mutate(
            RepointBatch(f, NextRepoint(&write_rng, kDbSize)));
        commit_us += log.End(span);
        ++out.attempted;
        if (!c.ok()) {
          out.Fail("replay commit: " + c.status.ToString());
          continue;
        }
        ++commits;
        views_maintained += c.views_maintained;
        just_committed = true;
      }
      const double acquire_before = totals.acquire_us;
      uint64_t digest = 0;
      ++out.attempted;
      const rodin::Status st =
          TracedQuery(f.session.get(), f.engine->cost_params(), f.reads[q],
                      &log, ++trace_id, round == 0, &totals, &digest);
      if (!st.ok() || digest != f.expected[q]) {
        if (st.ok()) out.correct = false;
        out.Fail(st.ok() ? "wrong answer for: " + f.reads[q] : st.ToString());
        continue;
      }
      if (just_committed) {
        after_commit_us += totals.acquire_us - acquire_before;
        ++after_commit_n;
        just_committed = false;
      }
      // Wire overhead: this text's mean round trip minus one embedded
      // Session::Run of it.
      uint64_t n = 0;
      double rtt = 0;
      for (const ReaderStats& r : readers) {
        n += r.rtt_count[q];
        rtt += r.rtt_us_sum[q];
      }
      if (n > 0) {
        const int64_t t0 = NowNs();
        const rodin::QueryRun r = f.session->Run(f.reads[q]);
        const double embedded_us = (NowNs() - t0) / 1e3;
        if (r.ok()) {
          embedded_gap_us += rtt / static_cast<double>(n) - embedded_us;
          ++gap_n;
        }
      }
    }
  }
  CheckViews(&f, &out);

  EmitLayerMetrics(totals, &out);
  EmitPlanCacheMetrics(cache_before, cache_after, &out);
  auto mean = [](double sum, uint64_t n) {
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  double traced_us = 0, untraced_us = 0, late_ms = 0;
  uint64_t traced_n = 0, untraced_n = 0;
  for (const ReaderStats& r : readers) {
    traced_us += r.traced_us;
    traced_n += r.traced_n;
    untraced_us += r.untraced_us;
    untraced_n += r.untraced_n;
  }
  for (double ms : writer.late_ms) late_ms += ms;
  out.Set("api.plan_acquire_after_commit_us",
          mean(after_commit_us, after_commit_n), "us");
  out.Set("txn.commit_us", mean(commit_us, commits), "us");
  out.Set("txn.views_maintained", mean(static_cast<double>(views_maintained), commits),
          "count");
  out.Set("server.read_rtt_us", mean(traced_us + untraced_us, traced_n + untraced_n),
          "us");
  out.Set("server.wire_overhead_us", mean(embedded_gap_us, gap_n), "us");
  out.Set("server.shed", static_cast<double>(shed), "count");
  out.Set("server.commit_conflicts", static_cast<double>(conflicts), "count");
  out.Set("server.rows_streamed", static_cast<double>(rows_streamed), "count");
  out.Set("load.writer_late_ms", mean(late_ms, writer.late_ms.size()), "ms");
  out.Set("trace.overhead_ratio",
          untraced_n == 0 ? 0.0
                          : mean(traced_us, traced_n) /
                                    mean(untraced_us, untraced_n) -
                                1,
          "ratio");
  out.Set("trace.harness_self_us", MeanRootSelfMicros(log, "request"), "us");
  out.Note("setup_s", setup_s, "s");
  for (const ReaderStats& r : readers) log.Merge(r.log);
  log.Merge(writer.log);
  out.Note("trace.spans", static_cast<double>(log.spans().size()), "count");
  if (!options.trace_out.empty() && !log.WriteChromeTrace(options.trace_out)) {
    out.Fail("cannot write " + options.trace_out);
  }
  return out;
}

}  // namespace perfbench
