#ifndef RODIN_EXEC_BATCH_ENGINE_H_
#define RODIN_EXEC_BATCH_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "exec/executor.h"
#include "exec/row_batch.h"

namespace rodin {

class ThreadPool;

/// The batched, morsel-parallel evaluation engine behind Executor and
/// ResultCursor. One engine instance evaluates one processing tree as a pull
/// pipeline of Open/NextBatch-style operators over ~ExecOptions::batch_rows
/// row batches; leaf scans, filters, joins and index probes fan their
/// per-row work across a shared worker pool in contiguous morsels. Every
/// operator expression is compiled to bytecode when the operator is built
/// (src/exec/vm/), with its navigation paths bound to field slots.
///
/// Accounting is deterministic by construction: workers never touch the
/// buffer pool — every operator pass records its page charges into its own
/// ChargeLog (morsel logs merged in morsel order), and Finalize() replays
/// all logs into the pool in the canonical order of the materialized
/// bottom-up evaluator (post-order, iteration by iteration for fixpoints).
/// CPU counters are integers (plus fixed-point method cost), so per-morsel
/// partial sums merge to the same totals for any batch size or thread
/// count. The result: ExecCounters, OpStats and MeasuredCost() are
/// bit-identical for any configuration, and equal to those of the tests'
/// whole-table reference evaluator (tests/support/reference_exec.h).
class BatchEngine {
 public:
  struct Config {
    Database* db = nullptr;
    size_t batch_rows = 1024;
    size_t exec_threads = 1;
    bool hash_equijoin = false;
    ThreadPool* pool = nullptr;  // shared worker pool; null = inline
    std::map<std::string, FixCacheEntry>* fix_cache = nullptr;
    bool collect_op_stats = false;
    /// Finalize() sinks, all owned by the Executor.
    std::map<const PTNode*, OpStats>* op_stats = nullptr;
    ExecCounters* counters = nullptr;
    uint64_t* method_cost_fp = nullptr;
    /// The run's lifecycle budget (see ExecOptions::query). Polled on the
    /// coordinator thread at batch and fixpoint-iteration boundaries, so a
    /// streaming cursor can be cancelled mid-read from another thread.
    const QueryContext* query = nullptr;
    /// Consult the process FaultInjector during this evaluation (Session's
    /// non-streaming paths only).
    bool inject_faults = false;
    /// Over-budget temp working sets spill to disk instead of tripping
    /// kResourceExhausted. Spilling moves row *bytes* only: the page-charge
    /// logs, ExecCounters, OpStats and MeasuredCost stay bit-identical to an
    /// all-in-memory run (spill I/O is tracked separately in spill_stats).
    bool spill_enabled = true;
    /// The temp-page ledger budget the spill decision checks against
    /// (already resolved through EffectiveSpillBudgetPages). 0 = unlimited.
    size_t spill_budget_pages = 0;
    /// Finalize() merges this engine's spill activity here (Executor-owned).
    SpillStats* spill_stats = nullptr;
  };

  BatchEngine(const Config& config, const PTNode& plan);
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  const RowSchema& schema() const;

  /// Fills `out` with the next batch (up to batch_rows rows). Returns false
  /// when the plan is exhausted; never returns an empty batch otherwise.
  /// Also returns false when the budget trips or a fault is injected —
  /// check status() to tell exhaustion from abort. After an abort the
  /// engine stays safe to Finalize (partial charges replay exactly).
  bool Next(RowBatch* out);

  /// OK while streaming normally; the abort reason (kCancelled,
  /// kDeadlineExceeded, kResourceExhausted, kFault) after Next returned
  /// false because the budget tripped.
  const Status& status() const;

  /// Replays every recorded page charge into the buffer pool in canonical
  /// order and merges counters / op stats into the configured sinks.
  /// Idempotent; called by the destructor if never called explicitly.
  void Finalize();

  uint64_t rows_emitted() const;

  /// Bytecode chunks compiled while building this engine's operator tree
  /// (Fix arms recompile per iteration) and their summed instruction
  /// counts; feeds the execute span's args.
  uint64_t vm_chunks() const;
  uint64_t vm_instrs() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rodin

#endif  // RODIN_EXEC_BATCH_ENGINE_H_
