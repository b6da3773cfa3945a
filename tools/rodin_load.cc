// rodin_load — load driver for rodin_serve, producing BENCH_server.json.
//
//   rodin_load --port=P [--host=ADDR] [--clients=N] [--requests=N]
//              [--rate-qps=R] [--query=FILE|recursive] [--deadline-ms=N]
//              [--prepare] [--max-retries=N] [--seed=S] [--out=FILE]
//              [--mix=NrMw] [--write-extent=E] [--write-attr=A]
//              [--write-slots=K]
//
// Thread-per-client driver. Closed loop by default: each of --clients
// connections issues --requests queries back-to-back. --rate-qps > 0
// switches to an open loop: the total offered rate is spread across the
// clients on a fixed schedule (sleep_until on the *planned* send time, so a
// slow reply does not throttle the offered load — queueing shows up as
// latency, the way an open-loop driver should behave).
//
// Shed requests (the retryable `overloaded` wire code) are retried with
// capped exponential backoff up to --max-retries and counted; any other
// failure counts as an error and fails the run. The backoff jitter draws
// from per-client RNG streams based at --seed (default 0x10ad, the
// historical constant), so retry schedules are reproducible per seed and
// decorrelated across seeds. --prepare switches to the PREPARE-once /
// EXECUTE-per-request path.
//
// --mix=NrMw (e.g. --mix=90r10w) interleaves writes into each client's
// request stream in the given read:write proportion (deterministically, so
// every run issues the same mix). A write is one MUTATE+COMMIT round-trip
// updating --write-attr of a rotating slot in --write-extent with a unique
// string — small, conflicting-by-design single-op transactions. Retryable
// refusals (the single-writer slot held by another connection, or live
// streaming cursors at commit) are counted as conflicts and retried with
// jittered exponential backoff under their own generous cap (>= 64
// attempts, not --max-retries): the server's single writer always
// completes, so a persistent retrier is guaranteed to make progress, and a
// whole fleet contending for one write slot needs far more attempts than a
// shed read does.
//
// Output: a Google Benchmark-shaped JSON (--out; default BENCH_server.json,
// or BENCH_mutate.json under --mix) with one iteration row per figure — in
// read-only mode server/qps, server/p50_us, server/p99_us, server/p999_us,
// server/shed; under --mix mutate/qps, mutate/read_p50_us,
// mutate/read_p99_us, mutate/write_p50_us, mutate/write_p99_us,
// mutate/conflicts — in real_time, so scripts/check_bench.py gates it like
// any other bench. A human summary goes to stdout.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "server/client.h"
#include "storage/value.h"
#include "txn/mutation.h"

using namespace rodin;

namespace {

constexpr const char* kDefaultQuery =
    R"(select [n: x.name] from x in Composer where x.name = "Bach")";

// A recursive workload (the paper's influencer chain) for heavier per-query
// cost; selected with --query=recursive.
constexpr const char* kRecursiveQuery = R"(
relation Influencer includes
  (select [master: x.master, disciple: x, gen: 1] from x in Composer)
  union
  (select [master: i.master, disciple: x, gen: i.gen + 1]
   from i in Influencer, x in Composer where i.disciple = x.master)

select [n: j.disciple.name] from j in Influencer where j.gen >= 3
)";

struct LoadOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t clients = 8;
  size_t requests = 20;  // per client
  double rate_qps = 0;   // 0 = closed loop
  std::string query = kDefaultQuery;
  uint64_t deadline_ms = 0;
  bool prepare = false;
  size_t max_retries = 8;
  // Base of the per-client backoff-jitter RNG streams (client i draws from
  // seed + i). The default keeps historical runs reproducible.
  uint64_t seed = 0x10ad;
  std::string out;  // empty = mode default (BENCH_server/BENCH_mutate)
  // --mix=NrMw; both 0 = read-only mode.
  size_t read_weight = 0;
  size_t write_weight = 0;
  std::string write_extent = "Composer";
  std::string write_attr = "name";
  size_t write_slots = 8;

  bool mixed() const { return write_weight > 0; }
};

struct ClientStats {
  std::vector<double> latencies_us;  // successful reads only
  std::vector<double> write_latencies_us;
  uint64_t ok = 0;        // reads
  uint64_t write_ok = 0;  // committed write transactions
  uint64_t shed_retries = 0;
  uint64_t conflict_retries = 0;
  uint64_t errors = 0;
  std::string first_error;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

uint64_t ParseCount(const std::string& value, const char* name) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    std::fprintf(stderr, "--%s expects a non-negative integer, got '%s'\n",
                 name, value.c_str());
    std::exit(2);
  }
  return std::stoull(value);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void RunClient(const LoadOptions& options, size_t index, ClientStats* stats) {
  server::Client client;
  Status s = client.Connect(options.host, options.port);
  if (!s.ok()) {
    stats->errors = options.requests;
    stats->first_error = s.ToString();
    return;
  }
  uint64_t statement_id = 0;
  if (options.prepare) {
    s = client.Prepare(options.query, &statement_id);
    if (!s.ok()) {
      stats->errors = options.requests;
      stats->first_error = s.ToString();
      return;
    }
  }
  QueryOptions qo;
  qo.query.deadline_ms = options.deadline_ms;
  // Per-client backoff jitter stream (decorrelates retry schedules; seeded
  // from --seed plus the client index so runs stay reproducible modulo
  // thread timing, and different seeds decorrelate whole runs).
  Rng backoff_rng(options.seed + index);

  using clock = std::chrono::steady_clock;
  // Open loop: this client's fixed send schedule, phase-shifted by index so
  // the fleet's arrivals interleave instead of pulsing.
  const double per_client_qps =
      options.rate_qps > 0
          ? options.rate_qps / static_cast<double>(options.clients)
          : 0;
  const auto interval =
      per_client_qps > 0
          ? std::chrono::nanoseconds(
                static_cast<int64_t>(1e9 / per_client_qps))
          : std::chrono::nanoseconds(0);
  auto next_send = clock::now() + interval * index / options.clients;

  const size_t mix_total = options.read_weight + options.write_weight;
  for (size_t i = 0; i < options.requests; ++i) {
    if (interval.count() > 0) {
      std::this_thread::sleep_until(next_send);
      next_send += interval;
    }
    // Deterministic read/write interleave: request i is a write exactly when
    // the running write quota ⌊(i+1)·w/total⌋ ticks up, so every run issues
    // the same NrMw pattern.
    const bool is_write =
        options.mixed() && ((i + 1) * options.write_weight) / mix_total >
                               (i * options.write_weight) / mix_total;
    const auto start = clock::now();
    bool done = false;
    // Write transactions stage once, then retry COMMIT alone on a refusal
    // (the transaction stays open server-side across a kConflict commit).
    // Conflicts get their own cap: unlike shedding, the single-writer gate
    // guarantees someone finishes, so persistence always pays off.
    const size_t retry_cap =
        is_write ? std::max<size_t>(options.max_retries, 64)
                 : options.max_retries;
    bool staged = false;
    for (size_t attempt = 0; attempt <= retry_cap; ++attempt) {
      Status status;
      if (is_write) {
        if (!staged) {
          MutationBatch batch;
          const uint32_t slot =
              static_cast<uint32_t>((index + i) % options.write_slots);
          // Slot-only target (class_id UINT32_MAX): the server resolves it
          // against the extent, so the driver needs no class-id knowledge.
          batch.Update(options.write_extent, Oid{UINT32_MAX, slot},
                       {{options.write_attr,
                         Value::Str("w-" + std::to_string(index) + "-" +
                                    std::to_string(i))}});
          status = client.Mutate(batch);
          staged = status.ok();
        }
        if (staged) status = client.Commit();
      } else {
        server::ClientResult result =
            options.prepare
                ? client.Execute(statement_id, qo, 0, /*collect_rows=*/false)
                : client.Query(options.query, qo, 0, /*collect_rows=*/false);
        status = result.status;
      }
      if (status.ok()) {
        const double us = std::chrono::duration<double, std::micro>(
                              clock::now() - start)
                              .count();
        if (is_write) {
          stats->write_latencies_us.push_back(us);
          ++stats->write_ok;
        } else {
          stats->latencies_us.push_back(us);
          ++stats->ok;
        }
        done = true;
        break;
      }
      if (status.retryable() && attempt < retry_cap) {
        ++(is_write ? stats->conflict_retries : stats->shed_retries);
        // Jittered exponential backoff: with a deterministic schedule the
        // losers of one conflict round all wake simultaneously and collide
        // again (and again) — jitter spreads the herd out.
        const uint64_t base = 100u << std::min<size_t>(attempt, 7);
        std::this_thread::sleep_for(
            std::chrono::microseconds(base + backoff_rng.Below(base)));
        continue;
      }
      ++stats->errors;
      if (stats->first_error.empty()) {
        stats->first_error = status.ToString();
      }
      done = true;
      break;
    }
    if (!done) {
      ++stats->errors;
      if (stats->first_error.empty()) {
        stats->first_error = is_write ? "retries exhausted (still conflicting)"
                                      : "retries exhausted (still overloaded)";
      }
    }
  }
  client.Goodbye();
}

struct BenchRow {
  std::string name;
  double value;
  const char* unit;
};

void WriteBenchJson(const std::string& path,
                    const std::vector<BenchRow>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "{\n  \"context\": {\n    \"executable\": \"rodin_load\"\n  },\n"
      << "  \"benchmarks\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& row = rows[i];
    out << "    {\n"
        << "      \"name\": \"" << row.name << "\",\n"
        << "      \"run_type\": \"iteration\",\n"
        << "      \"iterations\": 1,\n"
        << "      \"real_time\": " << row.value << ",\n"
        << "      \"cpu_time\": " << row.value << ",\n"
        << "      \"time_unit\": \"" << row.unit << "\"\n"
        << "    }" << (i + 1 == rows.size() ? "\n" : ",\n");
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  LoadOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "host", &value)) {
      options.host = value;
    } else if (ParseFlag(argv[i], "port", &value)) {
      options.port = static_cast<uint16_t>(ParseCount(value, "port"));
    } else if (ParseFlag(argv[i], "clients", &value)) {
      options.clients = static_cast<size_t>(ParseCount(value, "clients"));
    } else if (ParseFlag(argv[i], "requests", &value)) {
      options.requests = static_cast<size_t>(ParseCount(value, "requests"));
    } else if (ParseFlag(argv[i], "rate-qps", &value)) {
      options.rate_qps = std::stod(value);
    } else if (ParseFlag(argv[i], "query", &value)) {
      options.query = value == "recursive" ? kRecursiveQuery
                                           : ReadFile(value);
    } else if (ParseFlag(argv[i], "deadline-ms", &value)) {
      options.deadline_ms = ParseCount(value, "deadline-ms");
    } else if (ParseFlag(argv[i], "max-retries", &value)) {
      options.max_retries =
          static_cast<size_t>(ParseCount(value, "max-retries"));
    } else if (ParseFlag(argv[i], "seed", &value)) {
      options.seed = ParseCount(value, "seed");
    } else if (ParseFlag(argv[i], "out", &value)) {
      options.out = value;
    } else if (ParseFlag(argv[i], "mix", &value)) {
      // NrMw, e.g. 90r10w.
      const size_t r = value.find('r');
      const size_t w = value.find('w');
      if (r == std::string::npos || w == std::string::npos || w < r ||
          w + 1 != value.size()) {
        std::fprintf(stderr,
                     "--mix expects NrMw (e.g. 90r10w), got '%s'\n",
                     value.c_str());
        return 2;
      }
      options.read_weight =
          static_cast<size_t>(ParseCount(value.substr(0, r), "mix"));
      options.write_weight = static_cast<size_t>(
          ParseCount(value.substr(r + 1, w - r - 1), "mix"));
      if (options.read_weight + options.write_weight == 0) {
        std::fprintf(stderr, "--mix needs a non-zero weight\n");
        return 2;
      }
    } else if (ParseFlag(argv[i], "write-extent", &value)) {
      options.write_extent = value;
    } else if (ParseFlag(argv[i], "write-attr", &value)) {
      options.write_attr = value;
    } else if (ParseFlag(argv[i], "write-slots", &value)) {
      options.write_slots =
          static_cast<size_t>(ParseCount(value, "write-slots"));
      if (options.write_slots == 0) {
        std::fprintf(stderr, "--write-slots must be > 0\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--prepare") == 0) {
      options.prepare = true;
    } else {
      std::fprintf(
          stderr,
          "usage: rodin_load --port=P [--host=ADDR] [--clients=N]\n"
          "                  [--requests=N] [--rate-qps=R]\n"
          "                  [--query=FILE|recursive] [--deadline-ms=N]\n"
          "                  [--prepare] [--max-retries=N] [--seed=S]\n"
          "                  [--out=FILE]\n"
          "                  [--mix=NrMw] [--write-extent=E]\n"
          "                  [--write-attr=A] [--write-slots=K]\n");
      return 2;
    }
  }
  if (options.out.empty()) {
    options.out = options.mixed() ? "BENCH_mutate.json" : "BENCH_server.json";
  }
  if (options.port == 0) {
    std::fprintf(stderr, "rodin_load: --port is required\n");
    return 2;
  }
  if (options.clients == 0 || options.requests == 0) {
    std::fprintf(stderr, "rodin_load: need clients and requests > 0\n");
    return 2;
  }

  std::vector<ClientStats> stats(options.clients);
  std::vector<std::thread> threads;
  threads.reserve(options.clients);
  const auto wall_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < options.clients; ++i) {
    threads.emplace_back(RunClient, std::cref(options), i, &stats[i]);
  }
  for (auto& t : threads) t.join();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  std::vector<double> latencies, write_latencies;
  uint64_t ok = 0, write_ok = 0, shed = 0, conflicts = 0, errors = 0;
  std::string first_error;
  for (const ClientStats& s : stats) {
    latencies.insert(latencies.end(), s.latencies_us.begin(),
                     s.latencies_us.end());
    write_latencies.insert(write_latencies.end(),
                           s.write_latencies_us.begin(),
                           s.write_latencies_us.end());
    ok += s.ok;
    write_ok += s.write_ok;
    shed += s.shed_retries;
    conflicts += s.conflict_retries;
    errors += s.errors;
    if (first_error.empty()) first_error = s.first_error;
  }
  std::sort(latencies.begin(), latencies.end());
  std::sort(write_latencies.begin(), write_latencies.end());
  const uint64_t total_ok = ok + write_ok;
  const double qps = wall_s > 0 ? static_cast<double>(total_ok) / wall_s : 0;
  const double p50 = Percentile(latencies, 0.50);
  const double p99 = Percentile(latencies, 0.99);
  const double p999 = Percentile(latencies, 0.999);
  const double wp50 = Percentile(write_latencies, 0.50);
  const double wp99 = Percentile(write_latencies, 0.99);

  std::printf(
      "rodin_load: %zu clients x %zu requests (%s loop)\n"
      "  ok %llu, shed-retries %llu, errors %llu, wall %.2fs\n"
      "  qps %.1f   p50 %.0fus   p99 %.0fus   p99.9 %.0fus\n",
      options.clients, options.requests,
      options.rate_qps > 0 ? "open" : "closed",
      static_cast<unsigned long long>(total_ok),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(errors), wall_s, qps, p50, p99, p999);
  if (options.mixed()) {
    std::printf(
        "  writes: ok %llu, conflict-retries %llu, "
        "p50 %.0fus   p99 %.0fus\n",
        static_cast<unsigned long long>(write_ok),
        static_cast<unsigned long long>(conflicts), wp50, wp99);
  }
  if (errors > 0) {
    std::fprintf(stderr, "rodin_load: first error: %s\n",
                 first_error.c_str());
  }
  if (!options.out.empty()) {
    std::vector<BenchRow> rows;
    if (options.mixed()) {
      rows = {{"mutate/qps", qps, "qps"},
              {"mutate/read_p50_us", p50, "us"},
              {"mutate/read_p99_us", p99, "us"},
              {"mutate/write_p50_us", wp50, "us"},
              {"mutate/write_p99_us", wp99, "us"},
              {"mutate/conflicts", static_cast<double>(conflicts), "count"}};
    } else {
      rows = {{"server/qps", qps, "qps"},
              {"server/p50_us", p50, "us"},
              {"server/p99_us", p99, "us"},
              {"server/p999_us", p999, "us"},
              {"server/shed", static_cast<double>(shed), "count"}};
    }
    WriteBenchJson(options.out, rows);
    std::printf("  wrote %s\n", options.out.c_str());
  }
  const bool write_goal_met = !options.mixed() || write_ok > 0;
  return errors == 0 && total_ok > 0 && write_goal_met ? 0 : 1;
}
