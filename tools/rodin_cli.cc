// rodin_cli — command-line front end to the whole pipeline.
//
//   rodin_cli [--db=music|parts|graph] [--size=N] [--seed=S]
//             [--optimizer=cost|deductive|naive|exhaustive|annealing]
//             [--parallel=P] [--threads=N] [--exec-threads=N]
//             [--batch-rows=N] [--deadline-ms=N] [--memory-budget-pages=N]
//             [--explain] [--plan-only]
//             [--feedback] [--feedback-drift=X]
//             [--feedback-alpha=X] [--no-plan-cache] [--symbolic]
//             [--trace-out=FILE] [--metrics] [--query=FILE] [--mutate=SPEC]
//
// --mutate parses a small mutation DSL (see MutateSpecParser below), stages
// the batch and commits it through Session::Mutate — one atomic transaction
// per invocation. Alone it prints the commit summary (ops applied, new
// oids, post-commit stats version, materialized views maintained) and
// exits; combined with --query the query then runs against the mutated
// database. Failures exit with the Status taxonomy code (a refused commit
// is conflict=14).
//
// --parallel models a P-way parallel *execution* in the cost formulas;
// --threads runs the randomized plan *search* on N worker threads
// (deterministic under --seed for any N); --exec-threads runs the batched
// executor's morsel-parallel operators on N workers and --batch-rows sets
// the executor batch size (answers, counters and measured cost are
// identical for any combination — only wall time changes). The two executor
// knobs default to the executor's own values when omitted; passing an
// explicit 0 is rejected by the session as invalid_argument (exit 12) — 0
// is no longer an "inherit" sentinel.
//
// Under --explain the report ends with the per-operator bytecode
// disassembly the executor ran (see src/exec/vm/).
//
// --feedback turns on the adaptive cost-feedback loop (measured
// cardinalities correcting the optimizer's estimates, see
// src/cost/feedback.h; off by default). --feedback-drift sets the
// re-optimization threshold (> 1; default 3.0: a cached plan whose measured
// cost strays 3x from its estimate is demoted and re-optimized) and
// --feedback-alpha the correction EWMA weight in (0, 1]. Feedback never
// changes answers, only plans — a single CLI invocation optimizes once, so
// the flags matter for scripted warm-up comparisons and --mutate + --query
// combinations.
//
// --no-plan-cache makes the run bypass the session's plan cache (a single
// CLI invocation optimizes once either way; the flag matters for scripted
// comparisons and mirrors QueryOptions::bypass_plan_cache).
//
// --deadline-ms and --memory-budget-pages bound the run's lifecycle (see
// docs/ROBUSTNESS.md). --memory-budget-pages bounds the query's live temp
// pages: an over-budget operator working set spills to disk, with the same
// answer, counters and measured cost; only a single row wider than the
// whole budget fails (resource_exhausted).
// On failure the exit code is the Status taxonomy's
// code (ExitCodeForStatus): parse=3 semantic=4 optimize=5 exec=6
// cancelled=7 deadline=8 resource=9 fault=10 internal=11
// invalid_argument=12; usage errors exit 2.
//
// Reads one query (the paper's §2.3 syntax) from --query or stdin and runs
// it through a Session. The default output is the Figure 6 stage table, the
// chosen processing tree and the executed answer with measured cost.
// --explain prints the full EXPLAIN report instead (stage reports, the
// optimizer's decision log, and the plan with estimated vs measured
// per-operator figures). --plan-only optimizes without executing.
// --trace-out writes a Chrome trace_event JSON of the run (load in
// chrome://tracing or Perfetto); --metrics dumps the process-wide metrics
// registry after the run.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/session.h"
#include "cost/fig7.h"
#include "obs/metrics.h"
#include "plan/pt_printer.h"
#include "query/parser.h"
#include "storage/database.h"
#include "txn/mutation.h"

using namespace rodin;

namespace {

struct CliOptions {
  std::string db = "music";
  uint32_t size = 200;
  uint64_t seed = 42;
  std::string optimizer = "cost";
  unsigned parallel = 1;
  unsigned threads = 1;
  // Unset = executor defaults (sequential, 1024-row batches). The values
  // pass through to QueryOptions verbatim, so an explicit 0 reaches the
  // session and comes back as invalid_argument (exit 12).
  std::optional<size_t> exec_threads;
  std::optional<size_t> batch_rows;
  // 0 tuning values = inherit.
  bool feedback = false;
  double feedback_drift = 0;
  double feedback_alpha = 0;
  uint64_t deadline_ms = 0;   // 0 = no deadline
  uint64_t memory_budget_pages = 0;  // 0 = unlimited
  bool explain = false;
  bool plan_only = false;
  bool no_plan_cache = false;
  bool symbolic = false;
  bool metrics = false;
  std::string trace_out;
  std::string query_file;
  std::string mutate_spec;
};

// --- --mutate DSL ------------------------------------------------------------
//
//   SPEC   := op (';' op)* [';']
//   op     := 'insert' Extent [assign (',' assign)*]
//           | 'update' Extent '@' slot assign (',' assign)*
//           | 'delete' Extent '@' slot
//   assign := attr '=' value
//   value  := 'null' | 'true' | 'false' | integer | real | "string"
//           | '@' Extent ':' slot          (object reference)
//           | '{' [value (',' value)*] '}' (set)
//
// Example:
//   --mutate='insert Composer name="Satie", era="modern";
//             update Composer@3 master=@Composer:0; delete Part@17'
//
// The batch commits atomically through Session::Mutate; refs are resolved
// against the embedded database, so bad extents fail here with a message
// instead of at commit-time validation.
class MutateSpecParser {
 public:
  MutateSpecParser(const std::string& text, const Database& db)
      : text_(text), db_(db) {}

  bool Parse(MutationBatch* out) {
    SkipWs();
    while (pos_ < text_.size()) {
      if (!ParseOp(out)) return false;
      SkipWs();
      if (pos_ < text_.size() && !Eat(';')) {
        return Fail("expected ';' between operations");
      }
      SkipWs();
    }
    if (out->empty()) return Fail("empty mutation spec");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Eat(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string Ident() {
    SkipWs();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

  bool Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " (near offset " + std::to_string(pos_) + ")";
    }
    return false;
  }

  bool ParseSlot(uint32_t* slot) {
    SkipWs();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a slot number");
    *slot = static_cast<uint32_t>(
        std::strtoul(text_.substr(start, pos_ - start).c_str(), nullptr, 10));
    return true;
  }

  /// 'Extent' already consumed; parses '@slot' and resolves the oid.
  bool ParseTarget(const std::string& extent, Oid* target) {
    if (!Eat('@')) return Fail("expected '@slot' after '" + extent + "'");
    uint32_t slot = 0;
    if (!ParseSlot(&slot)) return false;
    if (db_.FindExtent(extent) == nullptr) {
      return Fail("unknown extent '" + extent + "'");
    }
    *target = db_.PayloadToOid(extent, slot);
    return true;
  }

  bool ParseValue(Value* out) {
    SkipWs();
    if (pos_ >= text_.size()) return Fail("expected a value");
    const char c = text_[pos_];
    if (c == '@') {  // reference: @Extent:slot
      ++pos_;
      const std::string extent = Ident();
      if (extent.empty()) return Fail("expected an extent name after '@'");
      if (!Eat(':')) return Fail("expected ':slot' in reference");
      uint32_t slot = 0;
      if (!ParseSlot(&slot)) return false;
      if (db_.FindExtent(extent) == nullptr) {
        return Fail("unknown extent '" + extent + "' in reference");
      }
      *out = Value::Ref(db_.PayloadToOid(extent, slot));
      return true;
    }
    if (c == '{') {  // set literal
      ++pos_;
      std::vector<Value> elems;
      SkipWs();
      if (!Eat('}')) {
        while (true) {
          Value v;
          if (!ParseValue(&v)) return false;
          elems.push_back(std::move(v));
          if (Eat('}')) break;
          if (!Eat(',')) return Fail("expected ',' or '}' in set literal");
        }
      }
      *out = Value::MakeSet(std::move(elems));
      return true;
    }
    if (c == '"') {  // string literal with minimal escapes
      ++pos_;
      std::string s;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        char ch = text_[pos_++];
        if (ch == '\\' && pos_ < text_.size()) {
          const char esc = text_[pos_++];
          ch = esc == 'n' ? '\n' : esc == 't' ? '\t' : esc;
        }
        s.push_back(ch);
      }
      if (pos_ >= text_.size()) return Fail("unterminated string literal");
      ++pos_;  // closing quote
      *out = Value::Str(std::move(s));
      return true;
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = pos_;
      if (c == '-') ++pos_;
      bool real = false;
      while (pos_ < text_.size()) {
        const char d = text_[pos_];
        if (std::isdigit(static_cast<unsigned char>(d))) {
          ++pos_;
        } else if (d == '.' || d == 'e' || d == 'E' ||
                   ((d == '+' || d == '-') && pos_ > start &&
                    (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E'))) {
          real = true;
          ++pos_;
        } else {
          break;
        }
      }
      const std::string num = text_.substr(start, pos_ - start);
      if (real) {
        *out = Value::Real(std::strtod(num.c_str(), nullptr));
      } else {
        *out = Value::Int(std::strtoll(num.c_str(), nullptr, 10));
      }
      return true;
    }
    const std::string word = Ident();
    if (word == "null") {
      *out = Value::Null();
      return true;
    }
    if (word == "true" || word == "false") {
      *out = Value::Bool(word == "true");
      return true;
    }
    return Fail("expected a value, got '" + word + "'");
  }

  bool ParseAssigns(std::vector<std::pair<std::string, Value>>* out) {
    while (true) {
      const std::string attr = Ident();
      if (attr.empty()) return Fail("expected an attribute name");
      if (!Eat('=')) return Fail("expected '=' after '" + attr + "'");
      Value v;
      if (!ParseValue(&v)) return false;
      out->emplace_back(attr, std::move(v));
      if (!Eat(',')) return true;
    }
  }

  bool ParseOp(MutationBatch* out) {
    const std::string verb = Ident();
    const std::string extent = Ident();
    if (extent.empty()) {
      return Fail("expected an extent name after '" + verb + "'");
    }
    if (verb == "insert") {
      std::vector<std::pair<std::string, Value>> values;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] != ';') {
        if (!ParseAssigns(&values)) return false;
      }
      out->Insert(extent, std::move(values));
      return true;
    }
    if (verb == "delete") {
      Oid target;
      if (!ParseTarget(extent, &target)) return false;
      out->Delete(extent, target);
      return true;
    }
    if (verb == "update") {
      Oid target;
      if (!ParseTarget(extent, &target)) return false;
      std::vector<std::pair<std::string, Value>> assigns;
      if (!ParseAssigns(&assigns)) return false;
      out->Update(extent, target, std::move(assigns));
      return true;
    }
    return Fail("expected insert/update/delete, got '" + verb + "'");
  }

  const std::string& text_;
  const Database& db_;
  size_t pos_ = 0;
  std::string error_;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

uint64_t ParseCount(const std::string& value, const char* name) {
  if (value.empty() || value.find_first_not_of("0123456789") !=
                           std::string::npos) {
    std::fprintf(stderr, "--%s expects a non-negative integer, got '%s'\n",
                 name, value.c_str());
    std::exit(2);
  }
  return std::stoull(value);
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: rodin_cli [--db=music|parts|graph] [--size=N] [--seed=S]\n"
      "                 [--optimizer=cost|deductive|naive|exhaustive|"
      "annealing]\n"
      "                 [--parallel=P] [--threads=N] [--exec-threads=N]\n"
      "                 [--batch-rows=N] [--deadline-ms=N]\n"
      "                 [--memory-budget-pages=N] [--explain] [--plan-only]\n"
      "                 [--feedback] [--feedback-drift=X]\n"
      "                 [--feedback-alpha=X]\n"
      "                 [--no-plan-cache] [--symbolic] [--trace-out=FILE]\n"
      "                 [--metrics] [--query=FILE] [--mutate=SPEC]\n"
      "Reads a query in the paper's syntax from --query or stdin.\n"
      "--mutate commits a batch first (and exits there unless --query is\n"
      "also given): 'insert Extent a=v,...; update Extent@slot a=v,...;\n"
      "delete Extent@slot' with values null/true/false/int/real/\"str\"/\n"
      "@Extent:slot/{set}.\n");
}

std::string ReadQuery(const CliOptions& options) {
  if (!options.query_file.empty()) {
    FILE* f = std::fopen(options.query_file.c_str(), "r");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", options.query_file.c_str());
      std::exit(2);
    }
    std::string out;
    char buffer[4096];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
      out.append(buffer, n);
    }
    std::fclose(f);
    return out;
  }
  std::ostringstream ss;
  ss << std::cin.rdbuf();
  return ss.str();
}

bool WriteTrace(const std::string& path, const obs::Trace& trace) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const std::string json = trace.ToChromeJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return true;
}

void MaybeDumpMetrics(const CliOptions& options) {
  if (!options.metrics) return;
  std::printf("\nmetrics:\n%s",
              obs::MetricsRegistry::Global().ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "db", &value)) {
      options.db = value;
    } else if (ParseFlag(argv[i], "size", &value)) {
      options.size = static_cast<uint32_t>(ParseCount(value, "size"));
    } else if (ParseFlag(argv[i], "seed", &value)) {
      options.seed = ParseCount(value, "seed");
    } else if (ParseFlag(argv[i], "optimizer", &value)) {
      options.optimizer = value;
    } else if (ParseFlag(argv[i], "parallel", &value)) {
      options.parallel = static_cast<unsigned>(ParseCount(value, "parallel"));
    } else if (ParseFlag(argv[i], "threads", &value)) {
      options.threads = static_cast<unsigned>(ParseCount(value, "threads"));
    } else if (ParseFlag(argv[i], "exec-threads", &value)) {
      options.exec_threads =
          static_cast<size_t>(ParseCount(value, "exec-threads"));
    } else if (ParseFlag(argv[i], "batch-rows", &value)) {
      options.batch_rows =
          static_cast<size_t>(ParseCount(value, "batch-rows"));
    } else if (ParseFlag(argv[i], "deadline-ms", &value)) {
      options.deadline_ms = ParseCount(value, "deadline-ms");
    } else if (ParseFlag(argv[i], "memory-budget-pages", &value)) {
      options.memory_budget_pages =
          ParseCount(value, "memory-budget-pages");
    } else if (ParseFlag(argv[i], "query", &value)) {
      options.query_file = value;
    } else if (ParseFlag(argv[i], "mutate", &value)) {
      options.mutate_spec = value;
    } else if (ParseFlag(argv[i], "trace-out", &value)) {
      options.trace_out = value;
    } else if (std::strcmp(argv[i], "--feedback") == 0) {
      options.feedback = true;
    } else if (ParseFlag(argv[i], "feedback-drift", &value)) {
      options.feedback_drift = std::stod(value);
    } else if (ParseFlag(argv[i], "feedback-alpha", &value)) {
      options.feedback_alpha = std::stod(value);
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      options.explain = true;
    } else if (std::strcmp(argv[i], "--plan-only") == 0) {
      options.plan_only = true;
    } else if (std::strcmp(argv[i], "--no-plan-cache") == 0) {
      options.no_plan_cache = true;
    } else if (std::strcmp(argv[i], "--symbolic") == 0) {
      options.symbolic = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      options.metrics = true;
    } else {
      Usage();
      return 2;
    }
  }

  // One construction path for every embedder (CLI, server, tests): the
  // EngineHandle validates the dataset/optimizer names and assembles the
  // shared state; bad names come back as a status, not an abort.
  EngineOptions engine_options;
  engine_options.dataset = options.db;
  engine_options.size = options.size;
  engine_options.seed = options.seed;
  engine_options.optimizer = options.optimizer;
  engine_options.search_threads = options.threads;
  engine_options.parallel_degree = options.parallel;
  Status engine_status;
  std::unique_ptr<EngineHandle> engine =
      EngineHandle::Create(engine_options, &engine_status);
  if (engine == nullptr) {
    std::fprintf(stderr, "%s\n", engine_status.ToString().c_str());
    return 2;
  }

  std::unique_ptr<Session> session_owner = engine->NewSession();
  Session& session = *session_owner;

  if (!options.mutate_spec.empty()) {
    MutationBatch batch;
    MutateSpecParser parser(options.mutate_spec, *engine->db());
    if (!parser.Parse(&batch)) {
      std::fprintf(stderr, "--mutate: %s\n", parser.error().c_str());
      return 2;
    }
    MutationResult staged;
    const CommitResult commit = session.Mutate(batch, &staged);
    if (!commit.ok()) {
      std::fprintf(stderr, "%s\n", commit.status.ToString().c_str());
      return ExitCodeForStatus(commit.status);
    }
    std::printf("mutation: %llu op(s) applied (%llu insert, %llu delete, "
                "%llu update)\n",
                static_cast<unsigned long long>(commit.ops_applied),
                static_cast<unsigned long long>(staged.inserted),
                static_cast<unsigned long long>(staged.deleted),
                static_cast<unsigned long long>(staged.updated));
    for (const Oid& oid : staged.new_oids) {
      if (!oid.valid()) continue;
      std::printf("  new %s@%u\n", engine->db()->ExtentNameOf(oid).c_str(),
                  oid.slot);
    }
    std::printf("stats version: %llu\n",
                static_cast<unsigned long long>(commit.stats_version));
    if (commit.views_maintained > 0) {
      std::printf("views maintained: %llu (%s)\n",
                  static_cast<unsigned long long>(commit.views_maintained),
                  commit.used_incremental ? "incremental" : "recomputed");
    }
    // Mutate-only invocation: done. With --query the run continues below and
    // observes the post-commit state (the session re-derives stats lazily).
    if (options.query_file.empty()) {
      MaybeDumpMetrics(options);
      return 0;
    }
  }

  const std::string text = ReadQuery(options);
  if (text.empty()) {
    Usage();
    return 2;
  }

  QueryOptions ro;
  ro.cold = true;
  ro.explain_only = options.plan_only;
  ro.collect_trace = !options.trace_out.empty();
  ro.exec_threads = options.exec_threads;
  ro.batch_rows = options.batch_rows;
  ro.feedback.enabled = options.feedback;
  ro.feedback.drift_threshold = options.feedback_drift;
  ro.feedback.ewma_alpha = options.feedback_alpha;
  ro.bypass_plan_cache = options.no_plan_cache;
  ro.query.deadline_ms = options.deadline_ms;
  ro.query.memory_budget_pages = options.memory_budget_pages;

  if (options.explain) {
    const ExplainResult ex = session.Explain(text, ro);
    if (!ex.ok()) {
      std::fprintf(stderr, "%s\n", ex.status.ToString().c_str());
      return ExitCodeForStatus(ex.status);
    }
    std::printf("%s", ex.ToString().c_str());
    if (!options.trace_out.empty() && ex.trace != nullptr) {
      if (!WriteTrace(options.trace_out, *ex.trace)) return 1;
    }
    MaybeDumpMetrics(options);
    return 0;
  }

  const QueryRun run = session.Run(text, ro);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status.ToString().c_str());
    return ExitCodeForStatus(run.status);
  }
  std::printf("query graph:\n%s\n", run.graph.ToString().c_str());

  const OptimizeResult& result = run.optimized;
  std::printf("stages:\n");
  for (const StageReport& s : result.stages) {
    std::printf("  %-12s %-24s %10.1f us  work=%zu\n", s.stage.c_str(),
                s.strategy.c_str(), s.micros, s.plans_explored);
  }
  if (run.plan_cached) std::printf("\n[plan: cached]");
  if (run.reoptimized_drift > 0) {
    std::printf("\n[plan: re-optimized (drift %.1fx)]", run.reoptimized_drift);
  }
  std::printf("\nplan (estimated cost %.1f, pushed: %s%s%s):\n%s\n",
              result.cost, result.pushed_sel ? "sel " : "",
              result.pushed_join ? "join " : "",
              !result.pushed_sel && !result.pushed_join ? "no" : "",
              run.plan_text.c_str());

  if (options.symbolic) {
    int t_counter = 0;
    const SymbolicCostTable table = DeriveSymbolicCosts(
        *result.plan, *engine->db(),
        {{"Composer", "Cpr"}, {"Composition", "Cpn"}, {"Instrument", "Ins"}},
        &t_counter);
    std::printf("symbolic costs (section 4.6 assumptions):\n%s\n",
                table.ToString().c_str());
  }

  if (!options.plan_only) {
    std::printf("answer (%zu rows, measured cost %.1f):\n%s",
                run.answer.rows.size(), run.measured_cost,
                run.answer.ToString(20).c_str());
  }
  if (!options.trace_out.empty() && run.trace != nullptr) {
    if (!WriteTrace(options.trace_out, *run.trace)) return 1;
  }
  MaybeDumpMetrics(options);
  return 0;
}
