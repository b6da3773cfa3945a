// E12 — batched morsel-parallel execution: a thread sweep over the batched
// engine's morsel workers, on the Figure 3 recursion and a selective scan.
// E14 — compiled evaluation over bound navigation, with per-layer rows for
// navigation, charge logging and pool replay.
// E18 — the nested-loop join's pair loop alone (BM_LayerNLJoinPairs, which
// the key probe now decides, and BM_LayerNLJoinPairLoop, which runs every
// pair program; E21).
// Every configuration computes the same answer with bit-identical counters
// and measured cost (asserted here cheaply via row counts; the exhaustive
// check is exec_differential_test) — the sweep measures pure wall time.
//
// Note: speedup is bounded by the cores the host actually has; on a 1-core
// container every thread count collapses to ~1×. The rows/sec counter is
// still meaningful as a throughput baseline.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "cost/cost_model.h"
#include "cost/stats.h"
#include "datagen/music_gen.h"
#include "exec/eval_core.h"
#include "exec/executor.h"
#include "optimizer/baseline.h"
#include "optimizer/optimizer.h"
#include "plan/pt.h"
#include "query/builder.h"
#include "query/paper_queries.h"

using namespace rodin;

namespace {

struct ExecCase {
  GeneratedDb db;
  std::unique_ptr<Stats> stats;
  std::unique_ptr<CostModel> cost;
  PTPtr plan;
  size_t expect_rows = 0;
};

ExecCase MakeCase(const QueryGraph& (*make_query)(ExecCase*),
                  int num_composers = 300) {
  ExecCase c;
  MusicConfig config;
  config.num_composers = num_composers;  // big enough that morsels amortize
  config.lineage_depth = 10;
  c.db = GenerateMusicDb(config, PaperMusicPhysical());
  c.stats = std::make_unique<Stats>(Stats::Derive(*c.db.db));
  c.cost = std::make_unique<CostModel>(c.db.db.get(), c.stats.get());

  const QueryGraph& q = make_query(&c);
  Optimizer opt(c.db.db.get(), c.stats.get(), c.cost.get(),
                CostBasedOptions(42));
  OptimizeResult r = opt.Optimize(q);
  RODIN_CHECK(r.ok(), r.status.message.c_str());
  c.plan = r.plan->Clone();
  c.cost->Annotate(c.plan.get());

  Executor exec(c.db.db.get());
  exec.ResetMeasurement(true);
  c.expect_rows = exec.Execute(*c.plan).rows.size();
  return c;
}

ExecCase& RecursiveCase() {
  static ExecCase* c = new ExecCase(MakeCase(+[](ExecCase* cc) -> const QueryGraph& {
    static QueryGraph q;
    q = Fig3Query(*cc->db.schema);
    return q;
  }));
  return *c;
}

ExecCase& ScanCase() {
  static ExecCase* c = new ExecCase(MakeCase(+[](ExecCase* cc) -> const QueryGraph& {
    static QueryGraph q;
    QueryGraphBuilder b;
    NodeBuilder& node = b.Node("Answer");
    node.Input("Composer", "x");
    node.Input("Composer", "y");
    node.Where(Expr::Eq(Expr::Path("x", {"master"}), Expr::Path("y", {})));
    node.Where(Expr::Eq(Expr::Path("x", {"works", "instruments", "iname"}),
                        Expr::Lit(Value::Str("harpsichord"))));
    node.OutPath("n", "x", {"name"});
    q = b.Build(*cc->db.schema);
    return q;
  }));
  return *c;
}

// Scan-heavy selective filter over a large extent: deep arithmetic chains
// under each comparison make per-row expression evaluation the dominant
// cost — the eval-bound shape the bytecode VM targets (E14).
ExecCase& FilterCase() {
  static ExecCase* c = new ExecCase(MakeCase(
      +[](ExecCase* cc) -> const QueryGraph& {
        static QueryGraph q;
        QueryGraphBuilder b;
        NodeBuilder& node = b.Node("Answer");
        node.Input("Composer", "x");
        // The interpreter allocates a Value vector per node per row; the
        // VM runs the same dataflow over reused registers.
        auto year_chain = [] {
          ExprPtr e = Expr::Path("x", {"birthyear"});
          for (int i = 0; i < 16; ++i) {
            e = Expr::Arith(i % 2 == 0 ? ArithOp::kAdd : ArithOp::kSub,
                            std::move(e), Expr::Lit(Value::Int(i + 1)));
          }
          return e;
        };
        node.Where(Expr::Cmp(CompareOp::kGe, year_chain(),
                             Expr::Lit(Value::Int(1640))));
        node.Where(Expr::Cmp(CompareOp::kLt, year_chain(),
                             Expr::Lit(Value::Int(1650))));
        node.OutPath("n", "x", {"name"});
        q = b.Build(*cc->db.schema);
        return q;
      },
      /*num_composers=*/3000));
  return *c;
}

// Deep path expression per scanned row: x.master.works.instruments.iname
// fans out through two collections — navigation-bound, the other E14 shape.
ExecCase& DeepPathCase() {
  static ExecCase* c = new ExecCase(MakeCase(
      +[](ExecCase* cc) -> const QueryGraph& {
        static QueryGraph q;
        QueryGraphBuilder b;
        NodeBuilder& node = b.Node("Answer");
        node.Input("Composer", "x");
        node.Where(Expr::Eq(
            Expr::Path("x", {"master", "works", "instruments", "iname"}),
            Expr::Lit(Value::Str("harpsichord"))));
        node.OutPath("n", "x", {"name"});
        q = b.Build(*cc->db.schema);
        return q;
      },
      /*num_composers=*/1000));
  return *c;
}

void RunOnce(ExecCase& c, const ExecOptions& options, benchmark::State& state) {
  size_t rows = 0;
  for (auto _ : state) {
    Executor exec(c.db.db.get());
    exec.ResetMeasurement(true);
    const Table out = exec.Execute(*c.plan, options);
    rows += out.rows.size();
    if (out.rows.size() != c.expect_rows) {
      state.SkipWithError("row count diverged from reference");
      return;
    }
    benchmark::DoNotOptimize(out.rows.data());
  }
  state.counters["rows/sec"] = benchmark::Counter(
      static_cast<double>(rows), benchmark::Counter::kIsRate);
}

void BM_BatchedRecursive(benchmark::State& state) {
  ExecOptions options;
  options.exec_threads = static_cast<size_t>(state.range(0));
  RunOnce(RecursiveCase(), options, state);
}
BENCHMARK(BM_BatchedRecursive)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_BatchedScanJoin(benchmark::State& state) {
  ExecOptions options;
  options.exec_threads = static_cast<size_t>(state.range(0));
  RunOnce(ScanCase(), options, state);
}
BENCHMARK(BM_BatchedScanJoin)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// E14 — compiled expression evaluation over bound navigation, on the
// eval-bound and navigation-bound shapes. The batched engine compiles every
// operator expression; these rows track its wall time.
void BM_ScanFilter(benchmark::State& state) {
  RunOnce(FilterCase(), ExecOptions{}, state);
}
BENCHMARK(BM_ScanFilter)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_DeepPath(benchmark::State& state) {
  RunOnce(DeepPathCase(), ExecOptions{}, state);
}
BENCHMARK(BM_DeepPath)->Unit(benchmark::kMillisecond)->UseRealTime();

// Navigation layers of the Fig. 3 fixpoint join (ROADMAP item 1). Its
// nested loop reads x.master once per (delta row, composer) pair, logs the
// page charge, and the engine later replays the log into the buffer pool.
// Each row times one layer alone over the same deterministic work — every
// composer's `master`, once per simulated outer row — and reports the work
// counts, so a change to one layer shows up in its own row:
//   NavigateBound  — the compiled step: one table load per object;
//   ChargeLog      — recording the resulting page sequence;
//   PoolReplay     — replaying that log into a warm buffer pool.
struct NavLayerCase {
  Database* db = nullptr;
  std::vector<Value> starts;      // one Ref per composer, in scan order
  std::vector<PageId> pages;      // the charge sequence of one pass
  static constexpr int kOuterRows = 64;
};

/// Counts charges without recording them.
struct CountingCharger final : PageCharger {
  uint64_t charges = 0;
  void Charge(PageId) override { ++charges; }
};

/// Records the exact charge sequence.
struct RecordingCharger final : PageCharger {
  std::vector<PageId> pages;
  void Charge(PageId page) override { pages.push_back(page); }
};

NavLayerCase& NavCase() {
  static NavLayerCase* c = [] {
    auto* n = new NavLayerCase;
    n->db = RecursiveCase().db.db.get();
    const Database::ScanSource src =
        n->db->ResolveScan(EntityRef{"Composer", 0, 0});
    for (uint32_t slot : *src.slots) {
      n->starts.push_back(Value::Ref(Oid{src.base_class, slot}));
    }
    RecordingCharger rec;
    uint64_t evals = 0, calls = 0, cost_fp = 0;
    EvalContext ctx{n->db, &rec, &evals, &calls, &cost_fp, nullptr};
    const BoundPath path = BindPath(*n->db, {"master"});
    std::vector<Value> out;
    for (const Value& v : n->starts) NavigateBound(&ctx, v, path, 0, &out);
    n->pages = std::move(rec.pages);
    return n;
  }();
  return *c;
}

void BM_LayerNavigateBound(benchmark::State& state) {
  NavLayerCase& c = NavCase();
  CountingCharger charger;
  uint64_t evals = 0, calls = 0, cost_fp = 0;
  EvalContext ctx{c.db, &charger, &evals, &calls, &cost_fp, nullptr};
  const BoundPath path = BindPath(*c.db, {"master"});
  std::vector<Value> out;
  uint64_t steps = 0;
  for (auto _ : state) {
    for (int outer = 0; outer < NavLayerCase::kOuterRows; ++outer) {
      for (const Value& v : c.starts) {
        out.clear();
        NavigateBound(&ctx, v, path, 0, &out);
        benchmark::DoNotOptimize(out.data());
        ++steps;
      }
    }
  }
  state.counters["steps"] = static_cast<double>(steps) / state.iterations();
  state.counters["charges"] =
      static_cast<double>(charger.charges) / state.iterations();
  state.counters["steps/sec"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_LayerNavigateBound)->Unit(benchmark::kMicrosecond);

void BM_LayerChargeLog(benchmark::State& state) {
  NavLayerCase& c = NavCase();
  size_t charges = 0;
  for (auto _ : state) {
    ChargeLog log;
    for (int outer = 0; outer < NavLayerCase::kOuterRows; ++outer) {
      for (PageId p : c.pages) log.Charge(p);
    }
    charges = log.size();
    benchmark::DoNotOptimize(charges);
  }
  state.counters["charges"] = static_cast<double>(charges);
}
BENCHMARK(BM_LayerChargeLog)->Unit(benchmark::kMicrosecond);

void BM_LayerPoolReplay(benchmark::State& state) {
  NavLayerCase& c = NavCase();
  ChargeLog log;
  for (int outer = 0; outer < NavLayerCase::kOuterRows; ++outer) {
    for (PageId p : c.pages) log.Charge(p);
  }
  BufferPool pool(256);
  log.ReplayInto(&pool);  // warm: the pass's pages are resident
  for (auto _ : state) {
    pool.ResetStats();
    log.ReplayInto(&pool);
  }
  state.counters["fetches"] = static_cast<double>(pool.stats().fetches);
  state.counters["hits"] = static_cast<double>(pool.stats().hits);
  state.counters["misses"] = static_cast<double>(pool.stats().misses);
}
BENCHMARK(BM_LayerPoolReplay)->Unit(benchmark::kMicrosecond);

// The pair loop of the Fig. 3 fixpoint join, alone: the base delta of the
// recursion (one row per composer, as the Influencer view's first
// iteration holds it) nested-loop-joined with Composer on
// i.disciple = x.master. Every (delta row, composer) pair is one predicate
// evaluation; `pairs` and `charges` (pool fetches, re-scans included) are
// deterministic, so a change to either is a change in work, not noise.
// That predicate is a key equality over a quiet outer column, so the join
// looks each delta row's matches up in the inner memo's key index. `loop`
// joins the same inputs on i.disciple.master = x.master, whose outer
// operand navigates: the key probe cannot take it, and every pair program
// runs.
struct PairLoopCase {
  Database* db = nullptr;
  PTPtr plan;
  PTPtr loop;
};

PairLoopCase& PairCase() {
  static PairLoopCase* c = [] {
    auto* p = new PairLoopCase;
    ExecCase& rc = RecursiveCase();
    p->db = rc.db.db.get();
    const ClassDef* composer = rc.db.schema->FindClass("Composer");
    std::vector<OutCol> proj;
    proj.push_back(OutCol{"i.master", Expr::Path("c", {"master"})});
    proj.push_back(OutCol{"i.disciple", Expr::Path("c")});
    proj.push_back(OutCol{"i.gen", Expr::Lit(Value::Int(1))});
    PTPtr delta = MakeProj(
        MakeEntity(EntityRef{"Composer", 0, 0}, "c", composer),
        std::move(proj),
        {{"i.master", composer}, {"i.disciple", composer}, {"i.gen", nullptr}},
        /*dedup=*/false);
    p->loop = MakeEJ(delta->Clone(),
                     MakeEntity(EntityRef{"Composer", 0, 0}, "x", composer),
                     Expr::Eq(Expr::Path("i", {"disciple", "master"}),
                              Expr::Path("x", {"master"})),
                     JoinAlgo::kNestedLoop);
    p->plan = MakeEJ(std::move(delta),
                     MakeEntity(EntityRef{"Composer", 0, 0}, "x", composer),
                     Expr::Eq(Expr::Path("i", {"disciple"}),
                              Expr::Path("x", {"master"})),
                     JoinAlgo::kNestedLoop);
    return p;
  }();
  return *c;
}

void RunPairLoop(const PTNode& plan, benchmark::State& state) {
  Database* db = PairCase().db;
  uint64_t pairs = 0, charges = 0;
  for (auto _ : state) {
    Executor exec(db);
    exec.ResetMeasurement(true);
    const Table out = exec.Execute(plan);
    benchmark::DoNotOptimize(out.rows.data());
    pairs = exec.counters().predicate_evals;
    charges = db->buffer_pool().stats().fetches;
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["charges"] = static_cast<double>(charges);
  state.counters["pairs/sec"] = benchmark::Counter(
      static_cast<double>(pairs) * state.iterations(),
      benchmark::Counter::kIsRate);
}

void BM_LayerNLJoinPairs(benchmark::State& state) {
  RunPairLoop(*PairCase().plan, state);
}
BENCHMARK(BM_LayerNLJoinPairs)->Unit(benchmark::kMicrosecond);

void BM_LayerNLJoinPairLoop(benchmark::State& state) {
  RunPairLoop(*PairCase().loop, state);
}
BENCHMARK(BM_LayerNLJoinPairLoop)->Unit(benchmark::kMicrosecond);

void BM_BatchRowsSweep(benchmark::State& state) {
  ExecOptions options;
  options.batch_rows = static_cast<size_t>(state.range(0));
  RunOnce(RecursiveCase(), options, state);
}
BENCHMARK(BM_BatchRowsSweep)->Arg(1)->Arg(64)->Arg(1024)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
