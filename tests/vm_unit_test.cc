// Unit tests for the bytecode VM (src/exec/vm/): every opcode executes at
// least once (proved by the debug opcode-hit counter, not by reading the
// compiler's output), the constant pool and path table deduplicate,
// disassembly is deterministic and complete, malformed chunks are rejected
// with kInternal, the compiler accepts every expression, and bound paths
// read the same fields and charge the same pages as by-name navigation on
// every extent, before and after a commit.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "api/session.h"
#include "datagen/music_gen.h"
#include "exec/eval_core.h"
#include "exec/executor.h"
#include "exec/vm/bytecode.h"
#include "exec/vm/compiler.h"
#include "exec/vm/vm.h"
#include "storage/physical_schema.h"
#include "support/reference_exec.h"

namespace rodin {
namespace {

class VmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MusicConfig config;
    config.num_composers = 24;
    config.lineage_depth = 5;
    g_ = GenerateMusicDb(config, PaperMusicPhysical());
    schema_.cols = {{"x", g_.schema->FindClass("Composer")}};
    const Database::ScanSource src =
        g_.db->ResolveScan(EntityRef{"Composer", 0, 0});
    for (uint32_t slot : *src.slots) {
      rows_.push_back(Row{Value::Ref(Oid{src.base_class, slot})});
    }
  }

  EvalContext Ctx(vm::VmScratch* scratch) {
    EvalContext ctx;
    ctx.db = g_.db.get();
    ctx.charger = &g_.db->buffer_pool();
    ctx.predicate_evals = &predicate_evals_;
    ctx.method_calls = &method_calls_;
    ctx.method_cost_fp = &method_cost_fp_;
    ctx.vm = scratch;
    return ctx;
  }

  GeneratedDb g_;
  RowSchema schema_;
  std::vector<Row> rows_;
  uint64_t predicate_evals_ = 0;
  uint64_t method_calls_ = 0;
  uint64_t method_cost_fp_ = 0;
};

// --- Opcode coverage --------------------------------------------------------

TEST_F(VmTest, EveryOpcodeExecutes) {
  std::array<uint64_t, vm::kNumOpCodes> hits{};
  vm::VmScratch scratch;
  scratch.opcode_hits = &hits;

  // Three programs that together cover the whole ISA.
  //
  // Predicate: And(path < lit, Or(lit-pred, Not(path-vs-path cmp)), bare
  // varpath) — fused compare, jumps both ways, general compare, AnyTrue,
  // LoadBool, Not, RetBool.
  const ExprPtr pred = Expr::And([] {
    std::vector<ExprPtr> kids;
    kids.push_back(Expr::Cmp(CompareOp::kLt, Expr::Path("x", {"birthyear"}),
                             Expr::Lit(Value::Int(1700))));
    std::vector<ExprPtr> or_kids;
    or_kids.push_back(Expr::Lit(Value::Bool(false)));
    or_kids.push_back(Expr::Not(Expr::Cmp(CompareOp::kEq,
                                          Expr::Path("x", {"name"}),
                                          Expr::Path("x", {"master", "name"}))));
    kids.push_back(Expr::Or(std::move(or_kids)));
    kids.push_back(Expr::Path("x", {}));  // bare varpath-as-predicate
    return kids;
  }());
  const vm::BytecodeChunk pred_chunk =
      vm::CompilePredicate(pred, schema_, *g_.db);

  // Value program: arith over a navigated path and a literal (operands must
  // be numeric — AsNumber asserts otherwise, in both engines).
  const ExprPtr value = Expr::Arith(ArithOp::kAdd,
                                    Expr::Path("x", {"birthyear"}),
                                    Expr::Lit(Value::Int(2)));
  const vm::BytecodeChunk value_chunk =
      vm::CompileMulti(value, schema_, *g_.db);

  // Projection: raw column (LoadColumn), constant, navigation, a predicate
  // in value position (BoolValue) and a null expression (LoadNull) —
  // RetProj.
  std::vector<OutCol> proj;
  proj.push_back(OutCol{"obj", Expr::Path("x", {})});
  proj.push_back(OutCol{"k", Expr::Lit(Value::Int(7))});
  proj.push_back(OutCol{"n", Expr::Path("x", {"name"})});
  proj.push_back(OutCol{"b", Expr::Cmp(CompareOp::kGe,
                                       Expr::Path("x", {"birthyear"}),
                                       Expr::Lit(Value::Int(1650)))});
  proj.push_back(OutCol{"u", nullptr});
  const vm::BytecodeChunk proj_chunk =
      vm::CompileProjection(proj, schema_, *g_.db);

  // Pair program of a join of x with y: one memo slot per input
  // (LoadSlot), each captured once per row.
  RowSchema inner;
  inner.cols = {{"y", g_.schema->FindClass("Composer")}};
  const vm::JoinPredicate join = vm::CompileJoinPredicate(
      Expr::Eq(Expr::Path("x", {"master"}), Expr::Path("y", {})), schema_,
      inner, *g_.db);
  vm::SlotMemo outer_memo, inner_memo;
  outer_memo.Clear(join.outer_slots.size());
  inner_memo.Clear(join.inner_slots.size());

  EvalContext ctx = Ctx(&scratch);
  for (size_t r = 0; r < rows_.size(); ++r) {
    const Row& row = rows_[r];
    (void)vm::RunPred(pred_chunk, &ctx, row, &scratch);
    (void)vm::RunMulti(value_chunk, &ctx, row, &scratch);
    (void)vm::RunProj(proj_chunk, &ctx, row, &scratch);
    outer_memo.Capture(join.outer_slots, g_.db.get(), row, &scratch);
    inner_memo.Capture(join.inner_slots, g_.db.get(), row, &scratch);
    vm::PairSlots slots;
    slots.memo = {&outer_memo, &inner_memo};
    slots.row = {r, r};
    (void)vm::RunPairPred(join.pair, &ctx, slots, &scratch);
  }

  for (size_t op = 0; op < vm::kNumOpCodes; ++op) {
    EXPECT_GT(hits[op], 0u) << "opcode never executed: "
                            << vm::OpCodeName(static_cast<vm::OpCode>(op));
  }
  // Three programs, two slot captures and one pair program per row.
  EXPECT_EQ(scratch.rows, rows_.size() * 6);
}

// --- Constant pool and path table dedup -------------------------------------

TEST_F(VmTest, ConstantPoolDedup) {
  vm::BytecodeChunk chunk;
  const uint32_t a = chunk.AddConst(Value::Int(42));
  const uint32_t b = chunk.AddConst(Value::Str("harpsichord"));
  const uint32_t c = chunk.AddConst(Value::Int(42));
  const uint32_t d = chunk.AddConst(Value::Str("harpsichord"));
  EXPECT_EQ(a, c);
  EXPECT_EQ(b, d);
  EXPECT_EQ(chunk.consts.size(), 2u);

  const uint32_t p1 = chunk.AddPath(*g_.db, {"works", "title"});
  const uint32_t p2 = chunk.AddPath(*g_.db, {"works", "title"});
  const uint32_t p3 = chunk.AddPath(*g_.db, {"works"});
  EXPECT_EQ(p1, p2);
  EXPECT_NE(p1, p3);
  EXPECT_EQ(chunk.paths.size(), 2u);

  // The compiler inherits the dedup: the same literal and path used twice
  // land once in the pools.
  std::vector<ExprPtr> kids;
  kids.push_back(Expr::Cmp(CompareOp::kGe, Expr::Path("x", {"birthyear"}),
                           Expr::Lit(Value::Int(1650))));
  kids.push_back(Expr::Cmp(CompareOp::kNe, Expr::Path("x", {"birthyear"}),
                           Expr::Lit(Value::Int(1650))));
  const vm::BytecodeChunk compiled =
      vm::CompilePredicate(Expr::And(std::move(kids)), schema_, *g_.db);
  EXPECT_EQ(compiled.consts.size(), 1u);
  EXPECT_EQ(compiled.paths.size(), 1u);
}

// --- Disassembler -----------------------------------------------------------

TEST_F(VmTest, DisassemblerCompleteAndDeterministic) {
  const ExprPtr pred = Expr::And([] {
    std::vector<ExprPtr> kids;
    kids.push_back(Expr::Cmp(CompareOp::kEq,
                             Expr::Path("x", {"works", "instruments", "iname"}),
                             Expr::Lit(Value::Str("harpsichord"))));
    kids.push_back(Expr::Cmp(CompareOp::kLt, Expr::Path("x", {"birthyear"}),
                             Expr::Lit(Value::Int(1700))));
    return kids;
  }());
  const vm::BytecodeChunk chunk = vm::CompilePredicate(pred, schema_, *g_.db);

  const std::string listing = chunk.Disassemble();
  EXPECT_EQ(listing, chunk.Disassemble());  // deterministic

  // One header line plus exactly one line per instruction.
  size_t lines = 0;
  for (char ch : listing) lines += (ch == '\n') ? 1 : 0;
  EXPECT_EQ(lines, chunk.code.size() + 1);

  // Every instruction's opcode name appears.
  for (const vm::Instr& instr : chunk.code) {
    EXPECT_NE(listing.find(vm::OpCodeName(instr.op)), std::string::npos)
        << vm::OpCodeName(instr.op);
  }
  // Operands render symbolically: the literal and the path both show up.
  EXPECT_NE(listing.find("harpsichord"), std::string::npos);
  EXPECT_NE(listing.find("1700"), std::string::npos);
}

// --- Malformed chunks -------------------------------------------------------

vm::BytecodeChunk MinimalPredChunk() {
  vm::BytecodeChunk chunk;
  chunk.num_bool_regs = 1;
  chunk.num_cols = 1;
  chunk.code.push_back({vm::OpCode::kLoadBool, 0, 0, 0, 1, 0});
  chunk.code.push_back({vm::OpCode::kRetBool, 0, 0, 0, 0, 0});
  return chunk;
}

TEST_F(VmTest, ValidateAcceptsWellFormed) {
  EXPECT_TRUE(MinimalPredChunk().Validate().ok());
  const vm::BytecodeChunk compiled = vm::CompilePredicate(
      Expr::Cmp(CompareOp::kEq, Expr::Path("x", {"name"}),
                Expr::Lit(Value::Str("composer_1"))),
      schema_, *g_.db);
  EXPECT_TRUE(compiled.Validate().ok());
}

TEST_F(VmTest, ValidateRejectsMalformed) {
  {
    vm::BytecodeChunk chunk = MinimalPredChunk();
    chunk.code[1].a = 9;  // bool register out of range
    const Status s = chunk.Validate();
    EXPECT_EQ(s.code, Status::Code::kInternal) << s.ToString();
  }
  {
    vm::BytecodeChunk chunk = MinimalPredChunk();
    chunk.code.pop_back();  // no terminal return
    EXPECT_EQ(chunk.Validate().code, Status::Code::kInternal);
  }
  {
    vm::BytecodeChunk chunk = MinimalPredChunk();
    // Jump past the end of the chunk.
    chunk.code.insert(chunk.code.begin() + 1,
                      {vm::OpCode::kJumpIfFalse, 0, 0, 0, 99, 0});
    EXPECT_EQ(chunk.Validate().code, Status::Code::kInternal);
  }
  {
    vm::BytecodeChunk chunk = MinimalPredChunk();
    // Constant-pool index with an empty pool.
    chunk.num_value_regs = 1;
    chunk.code.insert(chunk.code.begin(),
                      {vm::OpCode::kLoadConst, 0, 0, 0, 0, 0});
    EXPECT_EQ(chunk.Validate().code, Status::Code::kInternal);
  }
  {
    vm::BytecodeChunk chunk = MinimalPredChunk();
    // Column operand beyond the compiled row width.
    chunk.num_value_regs = 1;
    chunk.code.insert(chunk.code.begin(),
                      {vm::OpCode::kLoadColumn, 0, 0, 0, 5, 0});
    EXPECT_EQ(chunk.Validate().code, Status::Code::kInternal);
  }
  {
    vm::BytecodeChunk chunk = MinimalPredChunk();
    // Path-table index out of range on a navigation.
    chunk.num_value_regs = 1;
    chunk.code.insert(chunk.code.begin(),
                      {vm::OpCode::kNavigate, 0, 0, 0, 0, 3});
    EXPECT_EQ(chunk.Validate().code, Status::Code::kInternal);
  }
  {
    vm::BytecodeChunk chunk = MinimalPredChunk();
    // Memo slot outside a pair program (no slots declared).
    chunk.num_value_regs = 1;
    chunk.code.insert(chunk.code.begin(),
                      {vm::OpCode::kLoadSlot, 0, 1, 0, 0, 0});
    EXPECT_EQ(chunk.Validate().code, Status::Code::kInternal);
    // A third join input does not exist.
    chunk.num_slots = {1, 1};
    EXPECT_TRUE(chunk.Validate().ok());
    chunk.code[0].b = 2;
    EXPECT_EQ(chunk.Validate().code, Status::Code::kInternal);
  }
  {
    vm::BytecodeChunk chunk = MinimalPredChunk();
    // An arithmetic result in one of its own operand registers (a pair
    // program reads operands in place while it builds the result).
    chunk.num_value_regs = 2;
    chunk.code.insert(chunk.code.begin(),
                      {vm::OpCode::kArith, 0, 1, 0, 0, 0});
    EXPECT_EQ(chunk.Validate().code, Status::Code::kInternal);  // a == c
    chunk.code[0] = {vm::OpCode::kArith, 1, 1, 0, 0, 0};
    EXPECT_EQ(chunk.Validate().code, Status::Code::kInternal);  // a == b
    chunk.code[0] = {vm::OpCode::kArith, 1, 0, 0, 0, 0};
    EXPECT_TRUE(chunk.Validate().ok());
  }
  {
    vm::BytecodeChunk chunk;  // empty program
    EXPECT_EQ(chunk.Validate().code, Status::Code::kInternal);
  }
}

// --- The compiler is total over well-formed plans ---------------------------

TEST_F(VmTest, NullExpressionLoadsNothing) {
  // EvalMulti of a null expression is empty; the compiler emits LoadNull.
  const vm::BytecodeChunk null_expr = vm::CompileMulti(nullptr, schema_, *g_.db);
  EXPECT_NE(null_expr.Disassemble().find("LoadNull"), std::string::npos);

  vm::VmScratch scratch;
  EvalContext ctx = Ctx(&scratch);
  const uint64_t fetches = g_.db->buffer_pool().stats().fetches;
  for (const Row& row : rows_) {
    EXPECT_TRUE(vm::RunMulti(null_expr, &ctx, row, &scratch).empty());
  }
  EXPECT_EQ(g_.db->buffer_pool().stats().fetches, fetches);  // no charges
}

TEST_F(VmTest, UnresolvablePathAborts) {
  // "y" is not a column of the schema: a planner or builder bug. The
  // compiler aborts on it, as the interpreter does, in every position.
  EXPECT_DEATH(vm::CompilePredicate(Expr::Cmp(CompareOp::kEq,
                                              Expr::Path("y", {"name"}),
                                              Expr::Lit(Value::Str("a"))),
                                    schema_, *g_.db),
               "unresolvable variable path");
  EXPECT_DEATH(vm::CompilePredicate(Expr::Cmp(CompareOp::kEq,
                                              Expr::Lit(Value::Str("a")),
                                              Expr::Path("y", {"name"})),
                                    schema_, *g_.db),
               "unresolvable variable path");
  EXPECT_DEATH(vm::CompileMulti(Expr::Path("y", {}), schema_, *g_.db),
               "unresolvable variable path");
  // In a join predicate, too: a path neither input resolves is no slot.
  RowSchema inner;
  inner.cols = {{"z", g_.schema->FindClass("Composer")}};
  EXPECT_DEATH(vm::CompileJoinPredicate(
                   Expr::Eq(Expr::Path("x", {}), Expr::Path("y", {"master"})),
                   schema_, inner, *g_.db),
               "unresolvable variable path");
}

TEST_F(VmTest, DeepExpressionsCompile) {
  // Operands are wide enough that nesting far past the old 8-bit register
  // file still compiles, and runs like the interpreter.
  ExprPtr e = Expr::Path("x", {"birthyear"});
  for (int i = 0; i < 400; ++i) {
    e = Expr::Arith(ArithOp::kAdd, Expr::Lit(Value::Int(1)), std::move(e));
  }
  const vm::BytecodeChunk chunk = vm::CompileMulti(e, schema_, *g_.db);
  EXPECT_GT(chunk.num_value_regs, 255u);
  vm::VmScratch scratch;
  EvalContext ctx = Ctx(&scratch);
  for (const Row& row : rows_) {
    const std::vector<Value> want = EvalMulti(&ctx, schema_, row, e);
    EXPECT_EQ(vm::RunMulti(chunk, &ctx, row, &scratch), want);
  }
}

// --- Bound navigation ---------------------------------------------------------

/// Records the exact charge sequence.
struct VecCharger : PageCharger {
  std::vector<PageId> pages;
  void Charge(PageId page) override { pages.push_back(page); }
};

/// Navigates `path` from `start` by name and bound, on fresh counters, and
/// expects the same values, charges (in order) and method counts.
void ExpectBoundMatchesByName(const Database& db, const Value& start,
                              const std::vector<std::string>& path) {
  const BoundPath bound = BindPath(db, path);
  struct Observed {
    std::vector<Value> values;
    VecCharger charger;
    uint64_t evals = 0, calls = 0, cost_fp = 0;
  } by_name, by_slot;
  for (Observed* o : {&by_name, &by_slot}) {
    EvalContext ctx;
    ctx.db = &db;
    ctx.charger = &o->charger;
    ctx.predicate_evals = &o->evals;
    ctx.method_calls = &o->calls;
    ctx.method_cost_fp = &o->cost_fp;
    if (o == &by_name) {
      Navigate(&ctx, start, path, 0, &o->values);
    } else {
      NavigateBound(&ctx, start, bound, 0, &o->values);
    }
  }
  std::string label = start.ToString();
  for (const std::string& step : path) label += "." + step;
  EXPECT_EQ(by_slot.values, by_name.values) << label;
  EXPECT_EQ(by_slot.charger.pages, by_name.charger.pages) << label;
  EXPECT_EQ(by_slot.calls, by_name.calls) << label;
  EXPECT_EQ(by_slot.cost_fp, by_name.cost_fp) << label;
}

TEST(BoundPathTest, MatchesByNameNavigationOnEveryExtent) {
  // Person <- Composer, with Composer vertically fragmented so the same
  // inherited attribute lives in a different fragment (and so on a
  // different page) per extent; a relation whose tuples hold refs of both
  // classes; and a method declared on the superclass.
  Schema schema;
  TypePool& t = schema.types();
  ClassDef* person = schema.AddClass("Person");
  schema.AddAttribute(person, {"name", t.String(), false, 0, "", ""});
  schema.AddAttribute(person, {"mentor", t.Object("Person"), false, 0, "", ""});
  schema.AddAttribute(person, {"age", t.Int(), true, 2.5, "", ""});
  ClassDef* composer = schema.AddClass("Composer", "Person");
  schema.AddAttribute(composer, {"opus", t.Int(), false, 0, "", ""});
  schema.AddRelation("Pair", {{"who", t.Object("Person")}, {"rank", t.Int()}});

  Database db(&schema);
  std::vector<Oid> people;
  for (int i = 0; i < 6; ++i) {
    people.push_back(db.NewObject(i % 2 == 0 ? "Person" : "Composer"));
    db.Set(people.back(), "name", Value::Str("p" + std::to_string(i)));
  }
  for (size_t i = 1; i < people.size(); ++i) {
    db.Set(people[i], "mentor", Value::Ref(people[i - 1]));
    if (people[i].class_id == composer->id()) {
      db.Set(people[i], "opus", Value::Int(static_cast<int64_t>(i)));
    }
  }
  db.RegisterMethod("Person", "age", [](const Database& d, Oid oid) {
    return Value::Int(static_cast<int64_t>(d.GetRaw(oid, "name")
                                               .AsString()
                                               .size()));
  });
  std::vector<Oid> pairs;
  for (size_t i = 0; i < people.size(); ++i) {
    pairs.push_back(db.InsertTuple(
        "Pair", {Value::Ref(people[i]), Value::Int(static_cast<int64_t>(i))}));
  }
  PhysicalConfig config;
  config.vertical.push_back(
      VerticalSpec{"Composer", {{"name", "opus"}, {"mentor"}}});
  db.Finalize(config);

  const std::vector<std::vector<std::string>> paths = {
      {"name"}, {"mentor"}, {"mentor", "name"}, {"mentor", "mentor", "age"},
      {"age"},  {"opus"},   {"who", "mentor", "name"}, {"rank"}};
  auto check_all = [&] {
    for (const auto& path : paths) {
      for (Oid oid : people) {
        // Pair attributes do not exist on objects (and vice versa): the
        // interpreter aborts there, so only well-typed starts are checked.
        if (path[0] == "who" || path[0] == "rank") continue;
        if (path[0] == "opus" && oid.class_id != composer->id()) continue;
        ExpectBoundMatchesByName(db, Value::Ref(oid), path);
      }
      if (path[0] == "who" || path[0] == "rank") {
        for (Oid oid : pairs) ExpectBoundMatchesByName(db, Value::Ref(oid), path);
      }
    }
    // Collections fan out, nulls and atomics with residual steps vanish.
    ExpectBoundMatchesByName(
        db, Value::MakeSet({Value::Ref(people[1]), Value::Null(),
                            Value::Int(3), Value::Ref(people[4])}),
        {"mentor", "name"});
  };
  check_all();

  // A binding holds across commits: new records land on appended pages,
  // and bound reads charge those pages exactly like by-name reads.
  MutationBatch batch;
  batch.Insert("Composer", {{"name", Value::Str("late")},
                            {"mentor", Value::Ref(people[3])},
                            {"opus", Value::Int(99)}});
  MutationResult result;
  ASSERT_TRUE(db.Apply(batch, &result).ok());
  ASSERT_EQ(result.new_oids.size(), 1u);
  people.push_back(result.new_oids[0]);
  check_all();
}

// --- Key probes over a join's inner memo -----------------------------------

TEST_F(VmTest, OnlyOneSlotEqualityIsAKeyPredicate) {
  RowSchema outer, inner;
  outer.cols = {{"o", nullptr}, {"p", nullptr}};
  inner.cols = {{"k", nullptr}, {"m", nullptr}};
  auto compiled = [&](ExprPtr pred) {
    return vm::CompileJoinPredicate(pred, outer, inner, *g_.db);
  };
  const vm::JoinPredicate outer_left =
      compiled(Expr::Eq(Expr::Path("p", {}), Expr::Path("m", {})));
  EXPECT_TRUE(outer_left.key_probe);
  EXPECT_EQ(outer_left.key_slots, (std::array<uint32_t, 2>{0, 0}));
  const vm::JoinPredicate inner_left =
      compiled(Expr::Eq(Expr::Path("k", {}), Expr::Path("o", {})));
  EXPECT_TRUE(inner_left.key_probe);
  EXPECT_EQ(inner_left.key_slots, (std::array<uint32_t, 2>{0, 0}));
  // Any other operator, a second compare, an operand over both inputs, or
  // a literal operand is no key predicate.
  EXPECT_FALSE(compiled(Expr::Cmp(CompareOp::kNe, Expr::Path("o", {}),
                                  Expr::Path("k", {})))
                   .key_probe);
  EXPECT_FALSE(compiled(Expr::And([] {
                 std::vector<ExprPtr> kids;
                 kids.push_back(Expr::Eq(Expr::Path("o", {}),
                                         Expr::Path("k", {})));
                 kids.push_back(Expr::Eq(Expr::Path("p", {}),
                                         Expr::Path("m", {})));
                 return kids;
               }()))
                   .key_probe);
  EXPECT_FALSE(compiled(Expr::Eq(Expr::Arith(ArithOp::kAdd,
                                             Expr::Path("o", {}),
                                             Expr::Path("m", {})),
                                 Expr::Path("k", {})))
                   .key_probe);
  EXPECT_FALSE(
      compiled(Expr::Eq(Expr::Path("o", {}), Expr::Lit(Value::Int(1))))
          .key_probe);
}

TEST_F(VmTest, KeyIndexAnswersWhatThePairsAnswer) {
  // One memo slot per input, reading a column as is. Every outer key list
  // probes the inner memo's index; the rows must be those the pair program
  // matches, ascending, each once.
  RowSchema outer, inner;
  outer.cols = {{"o", nullptr}};
  inner.cols = {{"k", nullptr}};
  const vm::JoinPredicate jp = vm::CompileJoinPredicate(
      Expr::Eq(Expr::Path("o", {}), Expr::Path("k", {})), outer, inner,
      *g_.db);
  ASSERT_TRUE(jp.key_probe);
  const Value ref = rows_[0][0];
  const std::vector<Value> inner_keys = {
      Value::Int(1),
      Value::Real(-0.0),
      Value::Str("a"),
      Value::Real(1.0),
      Value::Null(),
      Value::Int(0),
      Value::MakeList({Value::Int(2), Value::Int(2), Value::Real(3.5)}),
      ref,
      Value::Bool(true),
      Value::MakeSet({}),
      Value::Str("b"),
      Value::Real(0.0),
      Value::MakeList({Value::Int(1), Value::Str("a")})};
  const std::vector<Value> outer_keys = {
      Value::Int(1),   Value::Real(0.0),  Value::Real(-0.0), Value::Int(0),
      Value::Int(2),   Value::Real(3.5),  Value::Str("a"),   ref,
      Value::Int(7),   Value::Null(),     Value::MakeSet({}),
      Value::Bool(true),
      Value::MakeList({Value::Int(2), Value::Str("b"), Value::Int(1)}),
      Value::MakeList({Value::Real(1.0), Value::Int(1)})};

  vm::VmScratch scratch;
  EvalContext ctx = Ctx(&scratch);
  vm::SlotMemo memo;
  memo.Clear(jp.inner_slots.size());
  for (const Value& k : inner_keys) {
    memo.Capture(jp.inner_slots, g_.db.get(), Row{k}, &scratch);
  }
  const size_t bytes = memo.bytes();
  ASSERT_TRUE(memo.BuildKeyIndex(jp.key_slots[1]));
  EXPECT_GT(memo.bytes(), bytes);  // the ledger sees the index

  std::vector<size_t> probed;
  for (const Value& k : outer_keys) {
    vm::SlotMemo one;
    one.Clear(jp.outer_slots.size());
    one.Capture(jp.outer_slots, g_.db.get(), Row{k}, &scratch);
    vm::PairSlots slots;
    slots.memo = {&one, &memo};
    std::vector<size_t> pairs;
    vm::RunPairs(jp.pair, &ctx, slots, inner_keys.size(), &pairs, &scratch);
    ASSERT_TRUE(memo.ProbeKeys(one.Values(0, jp.key_slots[0]), &probed))
        << k.ToString();
    EXPECT_EQ(probed, pairs) << k.ToString();
  }
  // -0.0 equals 0.0 and Int(0) (rows 1, 5 and 11).
  vm::SlotMemo zero;
  zero.Clear(1);
  zero.Capture(jp.outer_slots, g_.db.get(), Row{Value::Real(-0.0)}, &scratch);
  ASSERT_TRUE(memo.ProbeKeys(zero.Values(0, 0), &probed));
  EXPECT_EQ(probed, (std::vector<size_t>{1, 5, 11}));

  // NaN compares equal to every number, so no order can index it: an
  // outer NaN key refuses the probe (the caller runs the pairs) ...
  vm::SlotMemo nan;
  nan.Clear(1);
  nan.Capture(jp.outer_slots, g_.db.get(),
              Row{Value::MakeList({Value::Int(1), Value::Real(std::nan(""))})},
              &scratch);
  EXPECT_FALSE(memo.ProbeKeys(nan.Values(0, 0), &probed));
  // ... and an inner NaN leaves the memo without an index.
  memo.Capture(jp.inner_slots, g_.db.get(), Row{Value::Real(std::nan(""))},
               &scratch);
  EXPECT_FALSE(memo.BuildKeyIndex(jp.key_slots[1]));
  EXPECT_FALSE(memo.has_key_index());
  EXPECT_EQ(memo.bytes(), [&] {
    vm::SlotMemo plain;
    plain.Clear(1);
    for (const Value& k : inner_keys) {
      plain.Capture(jp.inner_slots, g_.db.get(), Row{k}, &scratch);
    }
    plain.Capture(jp.inner_slots, g_.db.get(), Row{Value::Real(std::nan(""))},
                  &scratch);
    return plain.bytes();
  }());
}

// --- EXPLAIN carries the disassembly ----------------------------------------

TEST_F(VmTest, ExplainIncludesDisassembly) {
  Session session(g_.db.get());
  const std::string text =
      "select [n: x.name] from x in Composer where x.birthyear < 1700";

  const ExplainResult on = session.Explain(text, QueryOptions{});
  ASSERT_TRUE(on.ok()) << on.status.ToString();
  EXPECT_FALSE(on.vm_disassembly.empty());
  EXPECT_NE(on.ToString().find("bytecode (compiled eval):"),
            std::string::npos);
  EXPECT_NE(on.vm_disassembly.find("RetBool"), std::string::npos);
}

}  // namespace
}  // namespace rodin
