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
//
// A second corpus drives the key probe: equalities of a projected outer
// column, which loads without charging, and an inner slot, so the engine
// looks each outer row's matches up in the inner memo's key index instead
// of running its pairs. Its keys repeat across inner rows and within one
// outer row, are null, empty, ints against reals, strings, and refs
// against ints; the probe must emit the same rows in the same order as the
// pairs, each once.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
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

/// Which relation the outer input scans. The key outers project their
/// scan variable (`c` over Composer, `n` over Instrument) and a key column
/// `k`.
enum class Outer { kComposer, kComposition, kComposerKey, kInstrumentKey };

struct JoinCase {
  std::string name;
  Outer outer;
  ExprPtr pred;
  /// The key outers' `k` column.
  ExprPtr key;
};

/// Outer `i` over Composer carries a derived column "i.gen"; outer `w` is
/// the Composition extent. The inner is always Composer bound to `x`.
std::vector<JoinCase> Corpus() {
  const Outer kC = Outer::kComposer;
  std::vector<JoinCase> cases;
  auto add = [&](std::string name, Outer outer, ExprPtr pred) {
    cases.push_back(JoinCase{std::move(name), outer, std::move(pred), nullptr});
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

/// Key probes: `k = <inner slot>` (or the inner slot on the left) over a
/// key outer. `year` is a birthyear several composers share and `other` a
/// different composer's.
std::vector<JoinCase> ProbeCorpus(int64_t year, int64_t other) {
  std::vector<JoinCase> cases;
  auto add = [&](std::string name, Outer outer, ExprPtr key, ExprPtr pred) {
    cases.push_back(
        JoinCase{std::move(name), outer, std::move(pred), std::move(key)});
  };
  const Outer kC = Outer::kComposerKey;
  const Outer kI = Outer::kInstrumentKey;
  // Several inner rows per key.
  add("key_birthyear", kC, P("c", {"birthyear"}),
      Cmp(CompareOp::kEq, P("k"), P("x", {"birthyear"})));
  // A real key against int values, inner operand on the left.
  add("real_key_inner_left", kC,
      Expr::Arith(ArithOp::kAdd, P("c", {"birthyear"}),
                  Expr::Lit(Value::Real(0.0))),
      Cmp(CompareOp::kEq, P("x", {"birthyear"}), P("k")));
  // An inner slot that fans out through two collections, and repeats a
  // key within one inner row when two works share an instrument.
  add("instrument_refs", kI, P("n"),
      Cmp(CompareOp::kEq, P("k"), P("x", {"works", "instruments"})));
  add("instrument_names", kI, P("n", {"iname"}),
      Cmp(CompareOp::kEq, P("x", {"works", "instruments", "iname"}), P("k")));
  // A collection-valued outer column: one key twice (int and real), and a
  // second key whose rows interleave with the first's.
  add("collection_key_repeats", kC,
      Expr::Lit(Value::MakeList({Value::Int(year), Value::Real(other),
                                 Value::Real(static_cast<double>(year)),
                                 Value::Int(year)})),
      Cmp(CompareOp::kEq, P("k"), P("x", {"birthyear"})));
  add("null_key", kC, Expr::Lit(Value::Null()),
      Cmp(CompareOp::kEq, P("k"), P("x", {"birthyear"})));
  add("empty_key", kC, Expr::Lit(Value::MakeSet({})),
      Cmp(CompareOp::kEq, P("k"), P("x", {"master"})));
  // Refs never equal ints.
  add("ref_key_against_int", kC, P("c"),
      Cmp(CompareOp::kEq, P("k"), P("x", {"birthyear"})));
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
    instrument_ = g_.schema->FindClass("Instrument");
    forced_.memory_budget_pages = 1;  // the filtered inner goes to disk
  }

  /// The key probes, keyed on the most common birthyear and the birthyear
  /// of another composer.
  std::vector<JoinCase> ProbeCases() {
    std::map<int64_t, int> births;
    const Database::ScanSource src =
        g_.db->ResolveScan(EntityRef{"Composer", 0, 0});
    for (uint32_t slot : *src.slots) {
      ++births[g_.db->GetRaw(Oid{src.base_class, slot}, "birthyear").AsInt()];
    }
    int64_t year = births.begin()->first;
    for (const auto& [y, n] : births) {
      if (n > births[year]) year = y;
    }
    const int64_t other =
        births.begin()->first == year ? births.rbegin()->first
                                      : births.begin()->first;
    return ProbeCorpus(year, other);
  }

  /// The predicate shapes, then the key probes.
  std::vector<JoinCase> AllCases() {
    std::vector<JoinCase> cases = Corpus();
    for (JoinCase& c : ProbeCases()) cases.push_back(std::move(c));
    return cases;
  }

  PTPtr MakeOuter(const JoinCase& c) {
    if (c.outer == Outer::kComposerKey || c.outer == Outer::kInstrumentKey) {
      const bool composer = c.outer == Outer::kComposerKey;
      const std::string var = composer ? "c" : "n";
      const ClassDef* cls = composer ? composer_ : instrument_;
      std::vector<OutCol> proj;
      proj.push_back(OutCol{var, P(var)});
      proj.push_back(OutCol{"k", c.key});
      return MakeProj(
          MakeEntity(EntityRef{composer ? "Composer" : "Instrument", 0, 0},
                     var, cls),
          std::move(proj), {{var, cls}, {"k", nullptr}}, /*dedup=*/false);
    }
    if (c.outer == Outer::kComposition) {
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
  const ClassDef* instrument_ = nullptr;
  QueryContext unlimited_;
  QueryContext forced_;
};

TEST_F(NlJoinMemoTest, EveryPredicateShapeMatchesTheReference) {
  for (const JoinCase& c : Corpus()) {
    for (bool materialized : {false, true}) {
      const std::string label =
          c.name + (materialized ? " (materialized inner)" : " (entity inner)");
      const PTPtr plan = MakeEJ(MakeOuter(c), MakeInner(materialized),
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

TEST_F(NlJoinMemoTest, KeyProbeMatchesTheReference) {
  // Each key case is probed (every outer row's block is replayed up front),
  // except over a spilled inner, which keeps no memo. Rows, their order and
  // the accounting must be the pairs'. The corpus must reach outer rows
  // with several matches, or a probe that emits them out of order or twice
  // would pass.
  obs::Counter* probed =
      obs::MetricsRegistry::Global().GetCounter("rodin.vm.pairs_probed");
  size_t multi_match_rows = 0;
  for (const JoinCase& c : ProbeCases()) {
    for (bool materialized : {false, true}) {
      const std::string label =
          c.name + (materialized ? " (materialized inner)" : " (entity inner)");
      const PTPtr plan = MakeEJ(MakeOuter(c), MakeInner(materialized), c.pred,
                                JoinAlgo::kNestedLoop);
      const uint64_t before = probed->value();
      const std::vector<uint64_t> spills = ExpectEngineMatchesReference(
          g_.db.get(), *plan, label,
          {{"unlimited", &unlimited_}, {"forced-spill", &forced_}});
      if (obs::kObsEnabled) {
        EXPECT_GT(probed->value(), before) << label;
      }
      if (materialized) {
        EXPECT_GT(spills[1], 0u) << label;
      }
      if (HasFailure()) return;
      // Matches per outer row: the reference emits an outer row's joined
      // rows together, and its first two columns name the outer row.
      ReferenceExecutor ref(g_.db.get());
      const Table out = ref.Execute(*plan);
      size_t run = 0;
      for (size_t r = 0; r < out.rows.size(); ++r) {
        const bool same_outer = r > 0 &&
                                out.rows[r][0] == out.rows[r - 1][0] &&
                                out.rows[r][1] == out.rows[r - 1][1];
        run = same_outer ? run + 1 : 1;
        if (run == 2) ++multi_match_rows;
      }
    }
  }
  EXPECT_GT(multi_match_rows, 0u);
}

TEST_F(NlJoinMemoTest, NaNKeysRunThePairs) {
  // NaN compares equal to every number, so it has no place in the key
  // index's order: an outer NaN key runs its row's pairs, and an inner NaN
  // leaves the memo without an index. Either way every pair matches.
  obs::Counter* probed =
      obs::MetricsRegistry::Global().GetCounter("rodin.vm.pairs_probed");
  const Value nan = Value::Real(std::nan(""));
  JoinCase nan_key{"outer_nan", Outer::kComposerKey,
                     Cmp(CompareOp::kEq, P("k"), P("x", {"birthyear"})),
                     Expr::Lit(nan)};
  std::vector<OutCol> proj;
  proj.push_back(OutCol{"x", P("x")});
  proj.push_back(OutCol{"v", Expr::Lit(nan)});
  PTPtr inner_nan = MakeProj(
      MakeEntity(EntityRef{"Composer", 0, 0}, "x", composer_), std::move(proj),
      {{"x", composer_}, {"v", nullptr}}, /*dedup=*/false);
  JoinCase int_key{"inner_nan", Outer::kComposerKey,
                     Cmp(CompareOp::kEq, P("k"), P("v")),
                     P("c", {"birthyear"})};
  const PTPtr plans[] = {
      MakeEJ(MakeOuter(nan_key), MakeInner(false), nan_key.pred,
             JoinAlgo::kNestedLoop),
      MakeEJ(MakeOuter(int_key), std::move(inner_nan), int_key.pred,
             JoinAlgo::kNestedLoop)};
  for (const PTPtr& plan : plans) {
    const uint64_t before = probed->value();
    ExpectEngineMatchesReference(g_.db.get(), *plan, "NaN key",
                                 {{"unlimited", &unlimited_}});
    EXPECT_EQ(probed->value(), before);
    const ExecFingerprint fp = ReferenceFingerprint(g_.db.get(), *plan);
    EXPECT_EQ(fp.rows.size(), 30u * 30u);
  }
}

TEST_F(NlJoinMemoTest, InnerMemoOverTheLedgerFallsBackPerPair) {
  // The inner memo is charged to the temp-page ledger. Under a budget that
  // holds the inner's rows but not the rows plus the memo, the join drops
  // the memo (nothing spills or is refused for it) and each pair captures
  // its inner row's slots itself, which still matches the reference. The
  // fallback shows in rodin.vm.rows_evaluated: the per-pair captures are
  // extra slot evaluations. A key index is part of the memo: under a budget
  // that holds the memo but not its index, the join keeps the memo and runs
  // the pairs the index would have decided, one row evaluation each
  // instead of one rodin.vm.pairs_probed. Budgets of 2^30 pages and more
  // hold any memo and must run like no budget at all, down to the slot
  // evaluations; from 2^52 pages on the room in bytes exceeds 64 bits and
  // must saturate.
  obs::Counter* vm_rows =
      obs::MetricsRegistry::Global().GetCounter("rodin.vm.rows_evaluated");
  obs::Counter* vm_probed =
      obs::MetricsRegistry::Global().GetCounter("rodin.vm.pairs_probed");
  struct Profile {
    uint64_t rows;
    uint64_t probed;
    uint64_t spills;
  };
  auto profile_of = [&](const PTNode& plan, const QueryContext* query) {
    ExecOptions options;
    options.batch_rows = 1024;
    options.exec_threads = 1;
    options.query = query;
    const uint64_t rows_before = vm_rows->value();
    const uint64_t probed_before = vm_probed->value();
    const ExecFingerprint fp = EngineFingerprint(g_.db.get(), plan, options);
    return Profile{vm_rows->value() - rows_before,
                   vm_probed->value() - probed_before, fp.spills};
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
  size_t index_dropped_beside_memo = 0;
  for (const JoinCase& c : AllCases()) {
    for (bool materialized : {false, true}) {
      const PTPtr plan = MakeEJ(MakeOuter(c), MakeInner(materialized),
                                c.pred, JoinAlgo::kNestedLoop);
      const Profile memo = profile_of(*plan, &unlimited_);
      for (const QueryContext& budget : budgets) {
        const std::string label =
            c.name + (materialized ? " (materialized inner)" : " (entity inner)") +
            " budget=" + std::to_string(budget.memory_budget_pages);
        ExpectEngineMatchesReference(g_.db.get(), *plan, label,
                                     {{"budget", &budget}});
        if (HasFailure()) return;
        const Profile got = profile_of(*plan, &budget);
        if (budget.memory_budget_pages >= kHugeBudget) {
          EXPECT_EQ(got.rows, memo.rows) << label;
          EXPECT_EQ(got.probed, memo.probed) << label;
          EXPECT_EQ(got.spills, 0u) << label;
        } else if (got.spills == 0 && got.rows > memo.rows + memo.probed) {
          if (materialized) ++fallbacks_beside_rows;
        } else if (got.spills == 0 && memo.probed > 0 && got.probed == 0 &&
                   got.rows == memo.rows + memo.probed) {
          ++index_dropped_beside_memo;
        }
      }
    }
  }
  if (obs::kObsEnabled) {
    EXPECT_GT(fallbacks_beside_rows, 0u);
    EXPECT_GT(index_dropped_beside_memo, 0u);
  }
}

TEST_F(NlJoinMemoTest, CorpusReachesMatchesAndMisses) {
  // The corpus is only a check if its joins produce rows and its small
  // pool evicts: a join that never matches, or a pool that holds every
  // page, would hide a lost or reordered replay.
  size_t joins_with_rows = 0;
  uint64_t evictions = 0;
  for (const JoinCase& c : Corpus()) {
    const PTPtr plan = MakeEJ(MakeOuter(c), MakeInner(false), c.pred,
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
