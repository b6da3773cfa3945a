#ifndef RODIN_EXEC_VM_COMPILER_H_
#define RODIN_EXEC_VM_COMPILER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/row.h"
#include "exec/vm/bytecode.h"
#include "plan/pt.h"
#include "query/expr.h"
#include "storage/database.h"

namespace rodin::vm {

/// Compiles `pred` into a boolean program (terminal kRetBool) evaluated
/// against rows of `schema`, replicating the semantics of the interpreter
/// the tests check it against (EvalPred, tests/support/reference_exec.h):
/// And/Or short-circuit left to right, Compare materializes both sides
/// fully then applies exists-semantics, a bare VarPath is "any value is
/// bool true", a bare literal is "is bool true", a bare arithmetic
/// expression is false. Navigation paths are bound against `db` (see
/// BoundPath), so the chunk runs only against that database.
///
/// Total over well-formed plans: every expression compiles. A variable path
/// that no column of `schema` resolves is a planner or builder bug and
/// aborts. Every returned chunk passes
/// Validate().
BytecodeChunk CompilePredicate(const ExprPtr& pred, const RowSchema& schema,
                               const Database& db);

/// Compiles `expr` into a multi-value program (terminal kRetValues) with
/// EvalMulti's semantics: literals yield themselves, paths fan out through
/// collections and drop nulls, arithmetic is a cross product, boolean kinds
/// yield a single Bool, a null expression yields nothing.
BytecodeChunk CompileMulti(const ExprPtr& expr, const RowSchema& schema,
                           const Database& db);

/// Compiles a projection list into one program (terminal kRetProj) that
/// leaves column k's values in v[k]. The caller applies the odometer
/// cross-product over the registers, as ProjOp does.
BytecodeChunk CompileProjection(const std::vector<OutCol>& proj,
                                const RowSchema& schema, const Database& db);

/// A nested-loop join predicate split for pair-at-a-time evaluation. Every
/// maximal operand that reads one input only (see OperandSide) is a memo
/// slot: a multi-value program compiled against that input's schema, run
/// once per row of that input. `pair` is the rest of the predicate; it
/// reads the slots through kLoadSlot, in the order the interpreter
/// evaluates the operands, and never reads a column, so a pair needs no
/// joined row. Operands that mix both inputs (`i.gen + x.birthyear`) stay
/// pair instructions over the slots of their one-input parts.
struct JoinPredicate {
  std::vector<BytecodeChunk> outer_slots;
  std::vector<BytecodeChunk> inner_slots;
  BytecodeChunk pair;
  /// The pair program has no jump, so every run loads every slot once, in
  /// slot order: a pair replays all of its outer row's slot charges, then
  /// all of its inner row's.
  bool loads_every_slot = false;
  /// The pair program is exactly one equality of outer slot key_slots[0]
  /// and inner slot key_slots[1] (kLoadSlot, kLoadSlot, kCompare kEq,
  /// kRetBool, in either operand order), so a pair matches exactly when
  /// the two entries share a value and the join may look its matches up
  /// by key (SlotMemo::BuildKeyIndex).
  bool key_probe = false;
  std::array<uint32_t, 2> key_slots{};
};

/// Splits and compiles the predicate of a join whose output schema is
/// `outer`'s columns followed by `inner`'s (null = always true).
JoinPredicate CompileJoinPredicate(const ExprPtr& pred, const RowSchema& outer,
                                   const RowSchema& inner, const Database& db);

/// Renders every chunk the batched engine runs for `plan`, one block per
/// operator expression (selection predicates, projection lists, index-join
/// probes and residuals, join predicates), mirroring the engine's operator
/// construction. Used by EXPLAIN's disassembly section.
std::string DisassemblePlan(const PTNode& plan, const Database& db);

}  // namespace rodin::vm

#endif  // RODIN_EXEC_VM_COMPILER_H_
