#ifndef RODIN_EXEC_VM_BYTECODE_H_
#define RODIN_EXEC_VM_BYTECODE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/eval_core.h"
#include "storage/value.h"

namespace rodin::vm {

/// The register-bytecode ISA for operator predicates, projections and
/// path-step programs. A chunk is compiled once per operator at plan time
/// (see vm/compiler.h) and then run per row by the dispatch loop in vm/vm.h.
///
/// Two register banks:
///   v[r] — *value registers*, each a reusable list of Values (expression
///          evaluation is multi-valued: path steps through collections fan
///          out, nulls produce nothing — exactly EvalMulti's contract).
///   b[r] — *bool registers* for predicate results and short-circuit jumps.
///
/// The compiler emits programs that replicate the interpreted evaluator's
/// depth-first evaluation order instruction by instruction, so every page
/// charge and method invocation happens at the same point in the same
/// order — the bit-identical accounting contract holds by construction.
enum class OpCode : uint8_t {
  kLoadConst,    // v[a] = { consts[d] }
  kLoadNull,     // v[a] = {}                (EvalMulti of a null expression)
  kLoadColumn,   // v[a] = expand(row[d])   (nulls dropped, collections fanned)
  kNavigate,     // v[a] = navigate(row[d], paths[e])  — charges dereferences
  kLoadSlot,     // v[a] = values of memo slot d of join input b (0 outer,
                 //        1 inner); replays the slot's captured charges and
                 //        method counts (pair programs only, see RunPairPred)
  kArith,        // v[a] = cross-product arith of v[b] (x) v[c]; d = ArithOp
  kCompare,      // b[a] = exists-compare of v[b] x v[c]; d = CompareOp
  kCmpColConst,  // b[a] = fused compare: row[c] (via paths[e] unless kNoPath)
                 //        against consts[d]; b = CompareOp. Typed fast paths
                 //        for atomic int/real/string and instant-false nulls.
  kAnyTrue,      // b[a] = any value in v[b] is bool true (VarPath-as-pred)
  kBoolValue,    // v[a] = { Bool(b[b]) }   (predicate in value position)
  kLoadBool,     // b[a] = (d != 0)
  kNot,          // b[a] = !b[b]
  kJumpIfFalse,  // if (!b[a]) ip = d       (And short-circuit)
  kJumpIfTrue,   // if (b[a])  ip = d       (Or short-circuit)
  kRetBool,      // return b[a]             (predicate programs)
  kRetValues,    // return v[a]             (multi-value programs)
  kRetProj,      // return v[0] .. v[d-1]   (projection programs)
};

constexpr size_t kNumOpCodes = static_cast<size_t>(OpCode::kRetProj) + 1;

const char* OpCodeName(OpCode op);

/// Sentinel path index: kCmpColConst compares the raw (expanded) column
/// value, no navigation.
constexpr uint32_t kNoPath = 0xffffffff;

/// One fixed-width instruction: opcode, three 16-bit register/operand slots
/// and two 32-bit immediates (constant-pool / path-table indexes, jump
/// targets, operator codes). Field meanings per opcode are documented on the
/// OpCode enum. The widths are far beyond what any expression needs, which
/// is what lets the compiler accept every expression.
struct Instr {
  OpCode op;
  uint16_t a = 0;
  uint16_t b = 0;
  uint16_t c = 0;
  uint32_t d = 0;
  uint32_t e = 0;
};

/// A compiled program: instruction stream plus its constant pool and path
/// table. Immutable after compilation; safe to share across threads (the VM
/// keeps all mutable state in a per-morsel VmScratch).
struct BytecodeChunk {
  std::vector<Instr> code;
  /// Deduplicated literal pool (AddConst).
  std::vector<Value> consts;
  /// Deduplicated navigation paths, bound to the database the chunk was
  /// compiled for: each step carries its attribute's field slot and
  /// vertical fragment on every extent (see BoundPath), so kNavigate and
  /// the fused compare never look a name up at run time.
  std::vector<BoundPath> paths;
  /// Register-file sizes (high-water marks from the compiler).
  uint16_t num_value_regs = 0;
  uint16_t num_bool_regs = 0;
  /// Width of the input rows the chunk was compiled against; column
  /// operands are validated against it.
  uint32_t num_cols = 0;
  /// Memo slots per join input (outer, inner) that kLoadSlot may read;
  /// zero outside a join's pair program.
  std::array<uint32_t, 2> num_slots{};

  /// Interns `v` into the constant pool (exact Value equality).
  uint32_t AddConst(const Value& v);
  /// Interns `path` into the path table, binding it against `db` on first
  /// use.
  uint32_t AddPath(const Database& db, const std::vector<std::string>& path);

  /// Structural verification: register/constant/path/column operands in
  /// range, jump targets within the chunk, terminated by a return. Returns
  /// Status::Code::kInternal describing the first malformed instruction.
  /// The compiler validates every chunk it emits; the dispatch loop assumes
  /// a validated chunk.
  Status Validate() const;

  /// Human-readable listing (one instruction per line), used by EXPLAIN and
  /// tracing. Deterministic for a given chunk.
  std::string Disassemble() const;
};

}  // namespace rodin::vm

#endif  // RODIN_EXEC_VM_BYTECODE_H_
