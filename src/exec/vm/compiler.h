#ifndef RODIN_EXEC_VM_COMPILER_H_
#define RODIN_EXEC_VM_COMPILER_H_

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

/// Renders every chunk the batched engine runs for `plan`, one block per
/// operator expression (selection predicates, projection lists, index-join
/// probes and residuals, join predicates), mirroring the engine's operator
/// construction. Used by EXPLAIN's disassembly section.
std::string DisassemblePlan(const PTNode& plan, const Database& db);

}  // namespace rodin::vm

#endif  // RODIN_EXEC_VM_COMPILER_H_
