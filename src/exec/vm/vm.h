#ifndef RODIN_EXEC_VM_VM_H_
#define RODIN_EXEC_VM_VM_H_

#include <array>
#include <cstdint>
#include <vector>

#include "exec/eval_core.h"
#include "exec/row.h"
#include "exec/vm/bytecode.h"

namespace rodin::vm {

/// Per-morsel mutable VM state: the register files and a navigation scratch
/// buffer. Registers are reused across every row a morsel evaluates —
/// cleared, never reallocated — which is where compiled eval's allocation
/// win over the interpreter (fresh std::vector per expression node per row)
/// comes from. One VmScratch per worker morsel; never shared across
/// threads.
struct VmScratch {
  std::vector<std::vector<Value>> vregs;
  std::vector<uint8_t> bregs;
  /// Temp list for the fused compare's navigation / expansion slow path.
  std::vector<Value> tmp;
  /// Chunk executions (one per Run* call), merged into the
  /// rodin.vm.rows_evaluated metric by the engine.
  uint64_t rows = 0;
  /// Debug-only per-opcode execution counts (tests wire this to prove every
  /// instruction is covered); null in production.
  std::array<uint64_t, kNumOpCodes>* opcode_hits = nullptr;

  /// Grows the register files to the chunk's requirements (no-op when
  /// already large enough).
  void Prepare(const BytecodeChunk& chunk) {
    if (vregs.size() < chunk.num_value_regs) vregs.resize(chunk.num_value_regs);
    if (bregs.size() < chunk.num_bool_regs) bregs.resize(chunk.num_bool_regs);
  }
};

/// Runs a predicate program (kRetBool terminal) against `row`. Page charges
/// and method costs flow through `ctx` exactly as interpreted EvalPred's
/// would. The chunk must have passed Validate() (the compiler guarantees
/// this); `row` must have the width the chunk was compiled against.
bool RunPred(const BytecodeChunk& chunk, EvalContext* ctx, const Row& row,
             VmScratch* scratch);

/// Runs a multi-value program (kRetValues terminal); the returned reference
/// points into `scratch` and is valid until its next use.
const std::vector<Value>& RunMulti(const BytecodeChunk& chunk,
                                   EvalContext* ctx, const Row& row,
                                   VmScratch* scratch);

/// Runs a projection program (kRetProj terminal): column k's values are
/// left in scratch->vregs[k] for k in [0, ncols); returns ncols.
size_t RunProj(const BytecodeChunk& chunk, EvalContext* ctx, const Row& row,
               VmScratch* scratch);

}  // namespace rodin::vm

#endif  // RODIN_EXEC_VM_VM_H_
