// Differential corpus for the nested-loop join's memo slots: the engine
// splits a join predicate into one-input operands, evaluated once per row
// of their input under a capturing log, and a pair program that replays
// their captured charges and method counts per pair. Whatever the
// predicate's shape, that must be indistinguishable from evaluating the
// whole predicate on every joined row, as the reference evaluator
// (tests/support/reference_exec.h) does: same rows in the same order,
// every ExecCounters field, fetch/hit/miss totals and bitwise
// MeasuredCost().
//
// The corpus covers one-input operands on either side of a compare (the
// inner one on the left too), And/Or/Not whose short-circuited operand
// would have charged pages, collection-valued paths and null attributes,
// the computed `age` on each side (method calls and method cost replay),
// operands that mix both inputs, non-Eq operators, a bare path as a
// predicate, predicates in value position, and the cross product. Each
// predicate joins an entity inner (per-outer-row extent re-scans) and a
// materialized inner (a temp that the forced arm spills), over batch
// {1, 7, 1024} x threads {1, 4} x {unlimited, forced spill}. Records are
// wide and the buffer pool small, so the order of the charges decides the
// misses. Two more arms: ledger budgets small enough that the inner memo
// does not fit beside the inner's rows (each pair then captures its inner
// slots itself), and budgets so large that their byte count overflows
// 64 bits (the memo must still fit).

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/query_context.h"
#include "datagen/music_gen.h"
#include "obs/config.h"
#include "obs/metrics.h"
#include "plan/pt.h"
#include "query/expr.h"
#include "support/reference_exec.h"

namespace rodin {
namespace {

ExprPtr P(const std::string& var, std::vector<std::string> path = {}) {
  return Expr::Path(var, std::move(path));
}

ExprPtr Int(int64_t v) { return Expr::Lit(Value::Int(v)); }

ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  return Expr::Cmp(op, std::move(l), std::move(r));
}

ExprPtr And(ExprPtr a, ExprPtr b) {
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(a));
  kids.push_back(std::move(b));
  return Expr::And(std::move(kids));
}

ExprPtr Or(ExprPtr a, ExprPtr b) {
  std::vector<ExprPtr> kids;
  kids.push_back(std::move(a));
  kids.push_back(std::move(b));
  return Expr::Or(std::move(kids));
}

/// Which relation the outer input scans.
enum class Outer { kComposer, kComposition };

struct JoinCase {
  std::string name;
  Outer outer;
  ExprPtr pred;
};

/// Outer `i` over Composer carries a derived column "i.gen"; outer `w` is
/// the Composition extent. The inner is always Composer bound to `x`.
std::vector<JoinCase> Corpus() {
  const Outer kC = Outer::kComposer;
  std::vector<JoinCase> cases;
  auto add = [&](std::string name, Outer outer, ExprPtr pred) {
    cases.push_back(JoinCase{std::move(name), outer, std::move(pred)});
  };
  // The Fig. 3 shape, and the inner operand on the left.
  add("outer_eq_inner_path", kC, Cmp(CompareOp::kEq, P("i"), P("x", {"master"})));
  add("inner_path_eq_outer", kC, Cmp(CompareOp::kEq, P("x", {"master"}), P("i")));
  add("paths_both_sides", kC,
      Cmp(CompareOp::kEq, P("i", {"master", "name"}), P("x", {"master", "name"})));
  add("raw_columns", kC, Cmp(CompareOp::kNe, P("x"), P("i")));
  // Non-Eq operators over one-input operands.
  add("lt_birthyears", kC,
      Cmp(CompareOp::kLt, P("x", {"birthyear"}), P("i", {"birthyear"})));
  add("ge_master_birthyears", kC,
      Cmp(CompareOp::kGe, P("i", {"master", "birthyear"}),
          P("x", {"birthyear"})));
  // Short circuits: the skipped operand would have charged pages (and, for
  // `age`, counted a method call).
  add("and_skips_inner_age", kC,
      And(Cmp(CompareOp::kEq, P("x", {"master"}), P("i")),
          Cmp(CompareOp::kGt, P("x", {"age"}), Int(300))));
  add("or_skips_navigation", kC,
      Or(Cmp(CompareOp::kEq, P("i", {"master"}), P("x")),
         Expr::Not(Cmp(CompareOp::kEq, P("x", {"master", "name"}),
                       P("i", {"name"})))));
  add("not_and_outer_first", kC,
      Expr::Not(And(Cmp(CompareOp::kLt, P("i", {"birthyear"}), Int(1680)),
                    Cmp(CompareOp::kEq, P("x", {"master", "master"}),
                        P("i", {"master"})))));
  // Null attributes: lineage roots have no master, and no master's master.
  add("null_masters", kC,
      Cmp(CompareOp::kEq, P("i", {"master", "master"}), P("x", {"master"})));
  // The computed attribute on each side.
  add("age_both_sides", kC,
      Cmp(CompareOp::kGe, P("i", {"age"}), P("x", {"age"})));
  add("age_inner_left", kC,
      Cmp(CompareOp::kLt, P("x", {"age"}), P("i", {"master", "age"})));
  // Operands that mix both inputs, against a literal and against a path.
  add("mixed_gen_plus_birthyear", kC,
      Cmp(CompareOp::kLe,
          Expr::Arith(ArithOp::kAdd, P("i", {"gen"}), P("x", {"birthyear"})),
          Int(1700)));
  add("mixed_both_operands", kC,
      Cmp(CompareOp::kGt,
          Expr::Arith(ArithOp::kSub, P("x", {"age"}), P("i", {"gen"})),
          Expr::Arith(ArithOp::kAdd, P("i", {"age"}),
                      P("x", {"master", "birthyear"}))));
  // A bare path as a predicate (never bool true, but it navigates) and
  // predicates in value position.
  add("bare_path_or", kC,
      Or(P("x", {"master", "name"}),
         Cmp(CompareOp::kEq, P("i"), P("x", {"master"}))));
  add("one_input_compares_as_values", kC,
      Cmp(CompareOp::kEq,
          Cmp(CompareOp::kLt, P("x", {"birthyear"}), Int(1680)),
          Cmp(CompareOp::kGt, P("i", {"age"}), Int(300))));
  add("mixed_compare_as_value", kC,
      Cmp(CompareOp::kNe,
          Cmp(CompareOp::kLt, P("x", {"birthyear"}), P("i", {"birthyear"})),
          Expr::Lit(Value::Bool(true))));
  add("cross_product", kC, nullptr);
  // Collection-valued paths fan out on both sides.
  add("collections_both_sides", Outer::kComposition,
      Cmp(CompareOp::kEq, P("w", {"instruments", "iname"}),
          P("x", {"works", "instruments", "iname"})));
  add("collection_inner_left", Outer::kComposition,
      And(Cmp(CompareOp::kEq, P("x", {"works"}), P("w")),
          Cmp(CompareOp::kNe, P("x", {"works", "instruments", "family"}),
              P("w", {"instruments", "family"}))));
  return cases;
}

class NlJoinMemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MusicConfig config;
    config.seed = 23;
    config.num_composers = 30;
    config.lineage_depth = 4;
    config.works_per_composer_min = 0;
    config.works_per_composer_max = 3;
    config.harpsichord_fraction = 0.3;
    // Wide records spread each extent over many pages, and the pool holds
    // a few of them: evictions make the misses depend on the charge order.
    PhysicalConfig physical = PaperMusicPhysical();
    physical.buffer_pages = 6;
    physical.record_bytes_override = {
        {"Composer", 1024}, {"Composition", 1024}, {"Instrument", 1024}};
    g_ = GenerateMusicDb(config, physical);
    composer_ = g_.schema->FindClass("Composer");
    composition_ = g_.schema->FindClass("Composition");
    forced_.memory_budget_pages = 1;  // the filtered inner goes to disk
  }

  PTPtr MakeOuter(Outer outer) {
    if (outer == Outer::kComposition) {
      return MakeEntity(EntityRef{"Composition", 0, 0}, "w", composition_);
    }
    std::vector<OutCol> proj;
    proj.push_back(OutCol{"i", P("c")});
    proj.push_back(OutCol{
        "i.gen", Expr::Arith(ArithOp::kSub, P("c", {"birthyear"}), Int(1600))});
    return MakeProj(MakeEntity(EntityRef{"Composer", 0, 0}, "c", composer_),
                    std::move(proj), {{"i", composer_}, {"i.gen", nullptr}},
                    /*dedup=*/false);
  }

  /// The Composer extent as `x`, or a materialized copy of it: a filter
  /// plus padding columns wide enough that its temp outgrows the forced
  /// arm's one-page ledger and spills.
  PTPtr MakeInner(bool materialized) {
    PTPtr scan = MakeEntity(EntityRef{"Composer", 0, 0}, "x", composer_);
    if (!materialized) return scan;
    PTPtr sel = MakeSel(std::move(scan),
                        Cmp(CompareOp::kGe, P("x", {"birthyear"}), Int(1600)));
    std::vector<OutCol> proj;
    std::vector<PTCol> cols;
    proj.push_back(OutCol{"x", P("x")});
    cols.push_back(PTCol{"x", composer_});
    for (int k = 0; k < 9; ++k) {
      const std::string pad = "pad" + std::to_string(k);
      proj.push_back(OutCol{pad, Int(k)});
      cols.push_back(PTCol{pad, nullptr});
    }
    return MakeProj(std::move(sel), std::move(proj), std::move(cols),
                    /*dedup=*/false);
  }

  GeneratedDb g_;
  const ClassDef* composer_ = nullptr;
  const ClassDef* composition_ = nullptr;
  QueryContext unlimited_;
  QueryContext forced_;
};

TEST_F(NlJoinMemoTest, EveryPredicateShapeMatchesTheReference) {
  for (const JoinCase& c : Corpus()) {
    for (bool materialized : {false, true}) {
      const std::string label =
          c.name + (materialized ? " (materialized inner)" : " (entity inner)");
      const PTPtr plan = MakeEJ(MakeOuter(c.outer), MakeInner(materialized),
                                c.pred, JoinAlgo::kNestedLoop);
      const std::vector<uint64_t> spills = ExpectEngineMatchesReference(
          g_.db.get(), *plan, label,
          {{"unlimited", &unlimited_}, {"forced-spill", &forced_}});
      EXPECT_EQ(spills[0], 0u) << label;
      // Only a materialized inner has a temp to spill.
      if (materialized) {
        EXPECT_GT(spills[1], 0u) << label;
      }
      if (HasFailure()) return;
    }
  }
}

TEST_F(NlJoinMemoTest, InnerMemoOverTheLedgerFallsBackPerPair) {
  // The inner memo is charged to the temp-page ledger. Under a budget that
  // holds the inner's rows but not the rows plus the memo, the join drops
  // the memo (nothing spills or is refused for it) and each pair captures
  // its inner row's slots itself, which still matches the reference. The
  // fallback shows in rodin.vm.rows_evaluated: the per-pair captures are
  // extra slot evaluations. Budgets of 2^30 pages and more hold any memo
  // and must run like no budget at all, down to the slot evaluations; from
  // 2^52 pages on the room in bytes exceeds 64 bits and must saturate.
  obs::Counter* vm_rows =
      obs::MetricsRegistry::Global().GetCounter("rodin.vm.rows_evaluated");
  auto vm_rows_of = [&](const PTNode& plan, const QueryContext* query) {
    ExecOptions options;
    options.batch_rows = 1024;
    options.exec_threads = 1;
    options.query = query;
    const uint64_t before = vm_rows->value();
    const ExecFingerprint fp = EngineFingerprint(g_.db.get(), plan, options);
    return std::make_pair(vm_rows->value() - before, fp.spills);
  };
  constexpr size_t kHugeBudget = size_t{1} << 30;
  std::vector<QueryContext> budgets;
  for (size_t pages : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                       size_t{6}, kHugeBudget, size_t{1} << 52,
                       size_t{1} << 60}) {
    budgets.emplace_back();
    budgets.back().memory_budget_pages = pages;
  }
  size_t fallbacks_beside_rows = 0;
  for (const JoinCase& c : Corpus()) {
    for (bool materialized : {false, true}) {
      const PTPtr plan = MakeEJ(MakeOuter(c.outer), MakeInner(materialized),
                                c.pred, JoinAlgo::kNestedLoop);
      const uint64_t memo_rows = vm_rows_of(*plan, &unlimited_).first;
      for (const QueryContext& budget : budgets) {
        const std::string label =
            c.name + (materialized ? " (materialized inner)" : " (entity inner)") +
            " budget=" + std::to_string(budget.memory_budget_pages);
        ExpectEngineMatchesReference(g_.db.get(), *plan, label,
                                     {{"budget", &budget}});
        if (HasFailure()) return;
        const auto [rows, spills] = vm_rows_of(*plan, &budget);
        if (budget.memory_budget_pages >= kHugeBudget) {
          EXPECT_EQ(rows, memo_rows) << label;
          EXPECT_EQ(spills, 0u) << label;
        } else if (materialized && spills == 0 && rows > memo_rows) {
          ++fallbacks_beside_rows;
        }
      }
    }
  }
  if (obs::kObsEnabled) {
    EXPECT_GT(fallbacks_beside_rows, 0u);
  }
}

TEST_F(NlJoinMemoTest, CorpusReachesMatchesAndMisses) {
  // The corpus is only a check if its joins produce rows and its small
  // pool evicts: a join that never matches, or a pool that holds every
  // page, would hide a lost or reordered replay.
  size_t joins_with_rows = 0;
  uint64_t evictions = 0;
  for (const JoinCase& c : Corpus()) {
    const PTPtr plan = MakeEJ(MakeOuter(c.outer), MakeInner(false), c.pred,
                              JoinAlgo::kNestedLoop);
    const ExecFingerprint fp = ReferenceFingerprint(g_.db.get(), *plan);
    if (!fp.rows.empty()) ++joins_with_rows;
    evictions += g_.db->buffer_pool().stats().evictions;
  }
  EXPECT_GE(joins_with_rows, Corpus().size() - 2);
  EXPECT_GT(evictions, 0u);
}

}  // namespace
}  // namespace rodin
