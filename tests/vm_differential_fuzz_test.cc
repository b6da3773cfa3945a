// Differential fuzz harness for the bytecode VM (src/exec/vm/): compiled
// evaluation over bound field slots must be indistinguishable from the
// interpreter's by-name evaluation in everything except wall time.
//
// Two layers:
//
//  1. Expression-level: hundreds of randomly generated predicate / value /
//     projection programs over the music schema, compiled and run against
//     real rows next to the reference interpreter's EvalPred / EvalMulti
//     (tests/support/reference_exec.h), comparing results, method
//     counters AND the exact page-charge sequence (bound navigation runs
//     inside the VM, so every dereference must land in the same order).
//
//  2. Query-level: randomized SPJ and recursive queries optimized and
//     executed by the batched engine (every expression compiled) over batch
//     sizes {1, 7, 1024} x threads {1, 4}, against the reference evaluator
//     (which interprets and resolves every step by name) — rows, every
//     ExecCounters field, pool fetch/hit/miss totals and MeasuredCost()
//     must be bit-identical.
//
// Seeds shift with RODIN_TEST_SEED (see tests/test_seed.h); failures log the
// effective seed and the generated program's disassembly.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "cost/cost_model.h"
#include "cost/stats.h"
#include "datagen/music_gen.h"
#include "exec/eval_core.h"
#include "exec/vm/bytecode.h"
#include "exec/vm/compiler.h"
#include "exec/vm/vm.h"
#include "optimizer/baseline.h"
#include "optimizer/optimizer.h"
#include "query/builder.h"
#include "query/query_graph.h"
#include "support/reference_exec.h"
#include "test_seed.h"

namespace rodin {
namespace {

// --- Layer 1: expression programs ------------------------------------------

/// Records the exact charge sequence, so interpreted and compiled runs can
/// be compared dereference by dereference, not just in total.
struct VecCharger : PageCharger {
  std::vector<PageId> pages;
  void Charge(PageId page) override { pages.push_back(page); }
};

/// One evaluation's observable side effects, packaged for exact comparison.
struct EvalFingerprint {
  std::string result;
  uint64_t method_calls = 0;
  uint64_t method_cost_fp = 0;
  std::vector<PageId> charges;

  friend bool operator==(const EvalFingerprint& a, const EvalFingerprint& b) {
    return a.result == b.result && a.method_calls == b.method_calls &&
           a.method_cost_fp == b.method_cost_fp && a.charges == b.charges;
  }
};

std::string Join(const std::vector<Value>& vals) {
  std::string out;
  for (const Value& v : vals) out += v.ToString() + "|";
  return out;
}

/// Attribute paths of the music schema reachable from a Composer row,
/// spanning atomic ints/strings, multi-step object navigation, collection
/// fan-out and the computed `age` attribute (method calls + cost).
const std::vector<std::vector<std::string>>& ComposerPaths() {
  static const std::vector<std::vector<std::string>> kPaths = {
      {"name"},
      {"birthyear"},
      {"age"},
      {},  // the raw object reference
      {"master"},
      {"master", "name"},
      {"master", "birthyear"},
      {"works", "title"},
      {"works", "instruments", "iname"},
      {"works", "instruments", "family"},
      {"master", "works", "instruments", "iname"},
  };
  return kPaths;
}

Value RandomLiteral(Rng* rng) {
  switch (rng->Below(6)) {
    case 0:
      return Value::Int(rng->Range(1600, 1750));
    case 1:
      return Value::Real(1650.0 + rng->NextDouble() * 100.0);
    case 2: {
      static const char* kStrings[] = {"harpsichord", "flute", "keyboard",
                                       "string", "composer_3", ""};
      return Value::Str(kStrings[rng->Below(6)]);
    }
    case 3:
      return Value::Bool(rng->Chance(0.5));
    case 4:
      return Value::Null();
    default:
      return Value::Int(static_cast<int64_t>(rng->Below(10)));
  }
}

CompareOp RandomCmpOp(Rng* rng) {
  static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                   CompareOp::kLt, CompareOp::kLe,
                                   CompareOp::kGt, CompareOp::kGe};
  return kOps[rng->Below(6)];
}

ExprPtr GenValue(Rng* rng, int depth);
ExprPtr GenPred(Rng* rng, int depth);

/// Arithmetic operands must be numeric — Value::AsNumber asserts on
/// strings/bools/nulls in the interpreter and the VM alike, exactly like
/// the type-checked queries the builder produces.
ExprPtr GenNumeric(Rng* rng, int depth) {
  const uint64_t pick = rng->Below(depth <= 0 ? 2 : 3);
  switch (pick) {
    case 0:
      return rng->Chance(0.5)
                 ? Expr::Lit(Value::Int(rng->Range(1600, 1750)))
                 : Expr::Lit(Value::Real(1650.0 + rng->NextDouble() * 100.0));
    case 1: {
      static const std::vector<std::vector<std::string>> kNumericPaths = {
          {"birthyear"}, {"age"}, {"master", "birthyear"}};
      return Expr::Path("x", kNumericPaths[rng->Below(3)]);
    }
    default:
      return Expr::Arith(rng->Chance(0.5) ? ArithOp::kAdd : ArithOp::kSub,
                         GenNumeric(rng, depth - 1),
                         GenNumeric(rng, depth - 1));
  }
}

ExprPtr GenValue(Rng* rng, int depth) {
  const uint64_t pick = rng->Below(depth <= 0 ? 2 : 4);
  switch (pick) {
    case 0:
      return Expr::Lit(RandomLiteral(rng));
    case 1: {
      const auto& paths = ComposerPaths();
      return Expr::Path("x", paths[rng->Below(paths.size())]);
    }
    case 2:
      return Expr::Arith(rng->Chance(0.5) ? ArithOp::kAdd : ArithOp::kSub,
                         GenNumeric(rng, depth - 1),
                         GenNumeric(rng, depth - 1));
    default:
      // A predicate in value position (EvalMulti yields a single Bool).
      return GenPred(rng, depth - 1);
  }
}

ExprPtr GenPred(Rng* rng, int depth) {
  const uint64_t pick = rng->Below(depth <= 0 ? 3 : 6);
  switch (pick) {
    case 0: {
      // Biased toward path-vs-literal (the fused-compare fast path), with
      // the literal on either side.
      const auto& paths = ComposerPaths();
      ExprPtr path = Expr::Path("x", paths[rng->Below(paths.size())]);
      ExprPtr lit = Expr::Lit(RandomLiteral(rng));
      return rng->Chance(0.5)
                 ? Expr::Cmp(RandomCmpOp(rng), std::move(path), std::move(lit))
                 : Expr::Cmp(RandomCmpOp(rng), std::move(lit),
                             std::move(path));
    }
    case 1:
      // General compare: arbitrary value expressions on both sides.
      return Expr::Cmp(RandomCmpOp(rng), GenValue(rng, depth - 1),
                       GenValue(rng, depth - 1));
    case 2:
      return rng->Chance(0.5)
                 ? Expr::Lit(RandomLiteral(rng))
                 : Expr::Path("x", ComposerPaths()[rng->Below(
                                       ComposerPaths().size())]);
    case 3: {
      std::vector<ExprPtr> kids;
      const int n = 2 + static_cast<int>(rng->Below(2));
      for (int i = 0; i < n; ++i) kids.push_back(GenPred(rng, depth - 1));
      return rng->Chance(0.5) ? Expr::And(std::move(kids))
                              : Expr::Or(std::move(kids));
    }
    case 4:
      return Expr::Not(GenPred(rng, depth - 1));
    default:
      return Expr::Arith(ArithOp::kAdd, GenNumeric(rng, depth - 1),
                         GenNumeric(rng, depth - 1));  // bare arith: false
  }
}

class VmExpressionFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    MusicConfig config;
    config.num_composers = 36;
    config.lineage_depth = 6;
    config.seed = 1234 + TestSeedBase();
    g_ = GenerateMusicDb(config, PaperMusicPhysical());

    schema_.cols = {{"x", g_.schema->FindClass("Composer")}};
    const Database::ScanSource src =
        g_.db->ResolveScan(EntityRef{"Composer", 0, 0});
    for (uint32_t slot : *src.slots) {
      rows_.push_back(Row{Value::Ref(Oid{src.base_class, slot})});
    }
    ASSERT_FALSE(rows_.empty());
  }

  /// Runs `fn` with a fresh fingerprinting EvalContext and returns what it
  /// observed.
  template <typename Fn>
  EvalFingerprint Observe(vm::VmScratch* scratch, Fn&& fn) {
    EvalFingerprint fp;
    VecCharger charger;
    uint64_t predicate_evals = 0;
    EvalContext ctx;
    ctx.db = g_.db.get();
    ctx.charger = &charger;
    ctx.predicate_evals = &predicate_evals;
    ctx.method_calls = &fp.method_calls;
    ctx.method_cost_fp = &fp.method_cost_fp;
    ctx.vm = scratch;
    fp.result = fn(&ctx);
    fp.charges = std::move(charger.pages);
    return fp;
  }

  GeneratedDb g_;
  RowSchema schema_;
  std::vector<Row> rows_;
};

TEST_F(VmExpressionFuzz, PredicateProgramsMatchInterpreter) {
  const uint64_t seed = 77 + TestSeedBase();
  Rng rng(seed);
  constexpr int kPrograms = 120;
  for (int prog = 0; prog < kPrograms; ++prog) {
    const ExprPtr pred = GenPred(&rng, 3);
    const vm::BytecodeChunk chunk =
        vm::CompilePredicate(pred, schema_, *g_.db);
    vm::VmScratch scratch;
    for (size_t r = 0; r < rows_.size(); ++r) {
      const Row& row = rows_[r];
      const EvalFingerprint want = Observe(nullptr, [&](EvalContext* ctx) {
        return std::string(EvalPred(ctx, schema_, row, pred) ? "T" : "F");
      });
      const EvalFingerprint got = Observe(&scratch, [&](EvalContext* ctx) {
        return std::string(vm::RunPred(chunk, ctx, row, &scratch) ? "T"
                                                                  : "F");
      });
      ASSERT_EQ(got, want)
          << "seed=" << seed << " (RODIN_TEST_SEED shifts) program=" << prog
          << " row=" << r << "\npred: " << pred->ToString() << "\n"
          << chunk.Disassemble();
    }
  }
}

TEST_F(VmExpressionFuzz, ValueProgramsMatchInterpreter) {
  const uint64_t seed = 177 + TestSeedBase();
  Rng rng(seed);
  constexpr int kPrograms = 80;
  for (int prog = 0; prog < kPrograms; ++prog) {
    const ExprPtr expr = GenValue(&rng, 3);
    const vm::BytecodeChunk chunk = vm::CompileMulti(expr, schema_, *g_.db);
    vm::VmScratch scratch;
    for (size_t r = 0; r < rows_.size(); ++r) {
      const Row& row = rows_[r];
      const EvalFingerprint want = Observe(nullptr, [&](EvalContext* ctx) {
        return Join(EvalMulti(ctx, schema_, row, expr));
      });
      const EvalFingerprint got = Observe(&scratch, [&](EvalContext* ctx) {
        return Join(vm::RunMulti(chunk, ctx, row, &scratch));
      });
      ASSERT_EQ(got, want)
          << "seed=" << seed << " (RODIN_TEST_SEED shifts) program=" << prog
          << " row=" << r << "\nexpr: " << expr->ToString() << "\n"
          << chunk.Disassemble();
    }
  }
}

TEST_F(VmExpressionFuzz, ProjectionProgramsMatchInterpreter) {
  const uint64_t seed = 277 + TestSeedBase();
  Rng rng(seed);
  constexpr int kPrograms = 50;
  for (int prog = 0; prog < kPrograms; ++prog) {
    std::vector<OutCol> proj;
    const int ncols = 1 + static_cast<int>(rng.Below(3));
    for (int c = 0; c < ncols; ++c) {
      proj.push_back(OutCol{"c" + std::to_string(c), GenValue(&rng, 2)});
    }
    const vm::BytecodeChunk chunk =
        vm::CompileProjection(proj, schema_, *g_.db);
    vm::VmScratch scratch;
    for (size_t r = 0; r < rows_.size(); ++r) {
      const Row& row = rows_[r];
      // The interpreter evaluates every column in order; the compiled
      // program must leave column k's values in vregs[k] with the same side
      // effects in the same order.
      const EvalFingerprint want = Observe(nullptr, [&](EvalContext* ctx) {
        std::string out;
        for (const OutCol& col : proj) {
          out += Join(EvalMulti(ctx, schema_, row, col.expr)) + ";";
        }
        return out;
      });
      const EvalFingerprint got = Observe(&scratch, [&](EvalContext* ctx) {
        const size_t n = vm::RunProj(chunk, ctx, row, &scratch);
        std::string out;
        for (size_t k = 0; k < n; ++k) out += Join(scratch.vregs[k]) + ";";
        return out;
      });
      ASSERT_EQ(got, want)
          << "seed=" << seed << " (RODIN_TEST_SEED shifts) program=" << prog
          << " row=" << r << "\n"
          << chunk.Disassemble();
    }
  }
}

// --- Layer 2: whole queries across the batch/thread matrix -----------------

QueryGraph RandomSpjQuery(Rng* rng, const Schema& schema) {
  QueryGraphBuilder b;
  NodeBuilder& node = b.Node("Answer");
  const int arcs = 1 + static_cast<int>(rng->Below(2));
  std::vector<std::string> vars;
  for (int i = 0; i < arcs; ++i) {
    const std::string var = "x" + std::to_string(i);
    node.Input("Composer", var);
    vars.push_back(var);
    if (i > 0) {
      node.Where(Expr::Eq(Expr::Path(vars[i - 1], {"master"}),
                          Expr::Path(var, {"master"})));
    }
  }
  const int sels = 1 + static_cast<int>(rng->Below(3));
  for (int i = 0; i < sels; ++i) {
    const std::string& var = vars[rng->Below(vars.size())];
    switch (rng->Below(4)) {
      case 0:
        node.Where(Expr::Cmp(rng->Chance(0.5) ? CompareOp::kGe : CompareOp::kLt,
                             Expr::Path(var, {"birthyear"}),
                             Expr::Lit(Value::Int(rng->Range(1620, 1720)))));
        break;
      case 1:
        node.Where(Expr::Eq(
            Expr::Path(var, {"works", "instruments", "family"}),
            Expr::Lit(Value::Str(rng->Chance(0.5) ? "keyboard" : "string"))));
        break;
      case 2:
        // The computed attribute: compiled Navigate must charge the method
        // call and its declared cost at the same point as the interpreter.
        node.Where(Expr::Cmp(CompareOp::kGe, Expr::Path(var, {"age"}),
                             Expr::Lit(Value::Int(rng->Range(20, 60)))));
        break;
      default: {
        static const char* kInstr[] = {"harpsichord", "flute", "violin",
                                       "organ"};
        node.Where(Expr::Eq(
            Expr::Path(var, {"works", "instruments", "iname"}),
            Expr::Lit(Value::Str(kInstr[rng->Below(4)]))));
        break;
      }
    }
  }
  node.OutPath("n", vars[0], {"name"});
  if (rng->Chance(0.5)) node.OutPath("y", vars[0], {"birthyear"});
  return b.Build(schema);
}

QueryGraph RandomRecursiveQuery(Rng* rng, const Schema& schema) {
  QueryGraphBuilder b;
  b.Node("Influencer", "P1")
      .Input("Composer", "x")
      .OutPath("master", "x", {"master"})
      .OutPath("disciple", "x")
      .Out("gen", Expr::Lit(Value::Int(1)));
  b.Node("Influencer", "P2")
      .Input("Influencer", "i")
      .Input("Composer", "x")
      .Where(Expr::Eq(Expr::Path("i", {"disciple"}), Expr::Path("x", {"master"})))
      .OutPath("master", "i", {"master"})
      .OutPath("disciple", "x")
      .Out("gen", Expr::Arith(ArithOp::kAdd, Expr::Path("i", {"gen"}),
                              Expr::Lit(Value::Int(1))));

  NodeBuilder& answer = b.Node("Answer", "P3");
  answer.Input("Influencer", "j");
  if (rng->Chance(0.7)) {
    answer.Where(Expr::Cmp(CompareOp::kGe, Expr::Path("j", {"gen"}),
                           Expr::Lit(Value::Int(rng->Range(2, 6)))));
  }
  answer.Where(Expr::Cmp(CompareOp::kLt,
                         Expr::Path("j", {"master", "birthyear"}),
                         Expr::Lit(Value::Int(rng->Range(1650, 1720)))));
  answer.OutPath("n", "j", {"disciple", "name"});
  return b.Build(schema);
}

class VmQueryFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VmQueryFuzzTest, CompiledMatchesInterpreted) {
  const uint64_t seed = GetParam() + TestSeedBase();
  SCOPED_TRACE("effective seed=" + std::to_string(seed) +
               " (RODIN_TEST_SEED shifts)");
  Rng rng(seed * 61 + 5);

  MusicConfig config;
  config.seed = seed * 17 + 3;
  config.num_composers = 40 + static_cast<uint32_t>(rng.Below(30));
  config.lineage_depth = 3 + static_cast<uint32_t>(rng.Below(6));
  PhysicalConfig physical = PaperMusicPhysical();
  if (rng.Chance(0.5)) {
    physical.sel_indexes.push_back(SelIndexSpec{"Composer", "birthyear"});
  }
  GeneratedDb g = GenerateMusicDb(config, physical);
  Stats stats = Stats::Derive(*g.db);
  CostModel cost(g.db.get(), &stats);

  for (int round = 0; round < 2; ++round) {
    const QueryGraph spj = RandomSpjQuery(&rng, *g.schema);
    Optimizer optimizer(g.db.get(), &stats, &cost, CostBasedOptions(seed));
    OptimizeResult plan = optimizer.Optimize(spj);
    ASSERT_TRUE(plan.ok()) << plan.status.ToString() << "\n" << spj.ToString();
    ExpectEngineMatchesReference(g.db.get(), *plan.plan,
                                 "spj round " + std::to_string(round));
  }
  const QueryGraph rec = RandomRecursiveQuery(&rng, *g.schema);
  Optimizer optimizer(g.db.get(), &stats, &cost, CostBasedOptions(seed));
  OptimizeResult plan = optimizer.Optimize(rec);
  ASSERT_TRUE(plan.ok()) << plan.status.ToString() << "\n" << rec.ToString();
  ExpectEngineMatchesReference(g.db.get(), *plan.plan, "recursive");
}

// 6 seeds x (2 SPJ + 1 recursive) = 18 optimized plans, each checked across
// the full batch-size x thread-count matrix; with layer 1's 250 expression
// programs the harness covers well over 200 generated programs per run.
INSTANTIATE_TEST_SUITE_P(Seeds, VmQueryFuzzTest,
                         ::testing::Range<uint64_t>(1, 7),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace rodin
