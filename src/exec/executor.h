#ifndef RODIN_EXEC_EXECUTOR_H_
#define RODIN_EXEC_EXECUTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "cost/params.h"
#include "exec/row.h"
#include "plan/pt.h"
#include "storage/database.h"

namespace rodin {

namespace obs {
class Tracer;
}  // namespace obs

class BatchEngine;
class ResultCursor;
class ThreadPool;

/// Runtime counters, in the same vocabulary as the cost model: page I/O is
/// tracked by the buffer pool; these cover the CPU side.
struct ExecCounters {
  uint64_t predicate_evals = 0;  // per-tuple predicate evaluations
  uint64_t method_calls = 0;
  double method_cost = 0;        // sum of declared method costs invoked
  uint64_t rows_produced = 0;    // rows emitted by the root
  uint64_t fix_iterations = 0;   // semi-naive iterations across all Fix nodes
};

/// Per-operator runtime profile, collected when CollectOpStats(true). All
/// figures are *inclusive* of the operator's children; Fix and Delta nodes
/// evaluate their subtrees repeatedly, so invocations > 1 there. `micros` is
/// coordinator wall time — under parallel evaluation the workers' summed CPU
/// time is NOT added on top (the coordinator blocks while morsels run, so
/// wall time is what an operator actually costs end-to-end).
struct OpStats {
  uint64_t invocations = 0;
  uint64_t rows = 0;    // rows the operator returned, summed over invocations
  uint64_t pages = 0;   // buffer-pool charges during evaluation
  double micros = 0;    // coordinator wall time spent in the operator
};

/// Which operator working set hit the budget. Carried in the
/// kResourceExhausted Status::detail (see PackResourceDetail) and used to
/// label spill metrics.
enum class SpillOpTag : uint8_t {
  kJoinBuild = 1,  // nested-loop join inner materialization
  kFixDelta = 2,   // semi-naive per-iteration delta table
  kDedup = 3,      // dedup-Proj table
  kFixCache = 4,   // memoized fixpoint result
  kUnion = 5,      // union dedup table
};

/// Machine-readable kResourceExhausted payload, same discipline as
/// kOverloaded (in-flight count) and kConflict (live-cursor count):
///   bits 56..63  SpillOpTag of the tripping operator
///   bits 28..55  pages requested (saturated at 2^28 - 1)
///   bits  0..27  pages remaining in the budget (saturated)
/// so pool managers branch on the payload, not on message text.
constexpr uint64_t kResourceDetailFieldMax = (1ull << 28) - 1;

constexpr uint64_t PackResourceDetail(SpillOpTag tag, uint64_t requested,
                                      uint64_t remaining) {
  return (static_cast<uint64_t>(tag) << 56) |
         ((requested > kResourceDetailFieldMax ? kResourceDetailFieldMax
                                               : requested)
          << 28) |
         (remaining > kResourceDetailFieldMax ? kResourceDetailFieldMax
                                              : remaining);
}

constexpr SpillOpTag ResourceDetailOp(uint64_t detail) {
  return static_cast<SpillOpTag>(detail >> 56);
}

constexpr uint64_t ResourceDetailRequested(uint64_t detail) {
  return (detail >> 28) & kResourceDetailFieldMax;
}

constexpr uint64_t ResourceDetailRemaining(uint64_t detail) {
  return detail & kResourceDetailFieldMax;
}

/// Aggregate spill activity of one executor since its last reset. Fed into
/// the rodin.spill.* metrics and the "execute" span; deliberately separate
/// from ExecCounters / MeasuredCost, which stay bit-identical spilled vs.
/// all-in-memory (docs/ROBUSTNESS.md).
struct SpillStats {
  uint64_t spills = 0;      // operator working sets that overflowed to disk
  uint64_t partitions = 0;  // budget-sized partitions across all spill files
  uint64_t bytes = 0;       // serialized bytes written
  uint64_t passes = 0;      // sequential read-back passes over spill files

  void Add(const SpillStats& o) {
    spills += o.spills;
    partitions += o.partitions;
    bytes += o.bytes;
    passes += o.passes;
  }
};

class SpillFile;

/// Builds the typed kResourceExhausted status, with the packed detail above,
/// for a single row of `requested` pages that is wider than the whole
/// `budget` — the only refusal: no partitioning can split one row.
Status MakeResourceExhausted(SpillOpTag tag, uint64_t requested,
                             uint64_t budget, uint64_t live);

/// Pages one temp-file row of `ncols` columns occupies (the 16-bytes-per-
/// value model of AllocateTempFile). A row wider than the whole budget is
/// refused.
uint64_t TempRowPages(size_t ncols);

/// Execution configuration. The defaults give sequential (single-thread)
/// morsels; any combination of batch_rows and exec_threads produces
/// bit-identical ExecCounters, OpStats page counts and MeasuredCost() —
/// parallelism changes wall time, never accounting.
struct ExecOptions {
  size_t batch_rows = 1024;   // rows per operator batch (min 1)
  size_t exec_threads = 1;    // worker threads for morsel-parallel operators
  /// The run's lifecycle budget (deadline / cancel / memory), referenced —
  /// never copied — from the QueryOptions' QueryContext. Null = unbounded.
  /// Polled on the coordinator thread only, per morsel batch and per
  /// semi-naive iteration. Tripping it aborts the evaluation with the
  /// corresponding status; partial page charges stay exact.
  const QueryContext* query = nullptr;
};

/// A temporary file: a run of simulated pages sized for `rows` rows of
/// `ncols` columns. Scanning it charges its pages.
struct TempFile {
  PageId first = 0;
  uint64_t pages = 0;
};

/// Allocates a temp file from the database's page space. Thread-safe, but
/// the executor only ever allocates from the coordinator thread so that the
/// page-id sequence of a query is deterministic.
TempFile AllocateTempFile(Database* db, size_t rows, size_t ncols);

/// Charges one full scan of `temp` to `charger`.
void ChargeTempScan(const TempFile& temp, PageCharger* charger);

/// One memoized fixpoint result. The temp file (simulated pages) always
/// exists — cache hits charge a scan of it regardless of where the payload
/// lives — but the row payload is either in memory (`result`) or, when the
/// insert overflowed the page budget, in a spill file. The caching decision
/// itself is budget-independent so that cache-hit charges stay bit-identical
/// spilled vs. unlimited.
struct FixCacheEntry {
  Table result;                      // empty when spilled
  TempFile temp;
  std::shared_ptr<SpillFile> spill;  // non-null when the payload is on disk
};

/// Executes processing trees against the object store with the batched,
/// morsel-parallel engine (see BatchEngine): operators pull RowBatches of
/// ExecOptions::batch_rows rows, and scans / filters / joins fan per-row
/// work across a shared worker pool. Fixpoints run the semi-naive (delta)
/// algorithm with a full barrier per iteration, and Sel-over-entity is
/// fused into the scan so the access/eval accounting matches the Figure 5
/// formulas.
///
/// Every page touched is (eventually) charged to the database's buffer
/// pool, so after a run `MeasuredCost()` expresses the same quantity the
/// cost model estimates: misses * pr + predicate_evals * ev_tuple + method
/// costs. The engine defers charges through per-operator logs and replays
/// them in the order of a bottom-up whole-table evaluation, which makes the
/// measured cost bit-identical across batch sizes and thread counts (the
/// tests check it against such an evaluator, tests/support/reference_exec).
class Executor {
 public:
  explicit Executor(Database* db, CostParams params = {});
  ~Executor();

  /// Evaluates `plan` and returns its result. Counters accumulate across
  /// calls until ResetMeasurement(). Any budget abort yields an empty table
  /// (use ExecuteInto to observe the status).
  Table Execute(const PTNode& plan);
  Table Execute(const PTNode& plan, const ExecOptions& options);

  /// Evaluates `plan` into `*out` by draining ExecuteStream, reporting budget
  /// violations (kCancelled, kDeadlineExceeded, kResourceExhausted) as a
  /// status instead of swallowing them. On a non-OK status `*out` is empty
  /// but the counters and page charges of the work actually performed
  /// remain — accounting stays exact for partial runs.
  Status ExecuteInto(const PTNode& plan, const ExecOptions& options,
                     Table* out);

  /// Streaming evaluation: returns a cursor the caller drains batch by
  /// batch. Page charges and counters are folded into this executor when
  /// the cursor finishes (or is destroyed).
  ResultCursor ExecuteStream(const PTNode& plan, ExecOptions options = {});

  const ExecCounters& counters() const { return counters_; }

  /// Measured cost of everything executed since the last reset.
  double MeasuredCost() const;

  /// Zeroes counters, per-operator stats and buffer-pool statistics;
  /// optionally drops resident pages (cold start).
  void ResetMeasurement(bool clear_buffer);

  /// Multi-tenant variant: zeroes only this executor's own state (counters,
  /// op stats, the miss watermark MeasuredCost subtracts) and leaves the
  /// shared buffer pool's statistics and resident set untouched, so
  /// concurrent executors over one Database never clobber each other's
  /// measurement. MeasuredCost() still reports this run's delta; under
  /// concurrent load the page component includes interleaved misses from
  /// other queries (shared-pool attribution is approximate by design —
  /// see docs/SERVER.md).
  void ResetMeasurementShared();

  /// Enables the per-operator profile (a map lookup + clock read per node
  /// evaluation; off by default).
  void CollectOpStats(bool on) { collect_op_stats_ = on; }

  /// Span sink: every stream opened while it is set records an "execute"
  /// span in it (null = no tracing). See ResultCursor.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Profile of every node evaluated since the last reset, keyed by plan
  /// node. Empty unless CollectOpStats(true).
  const std::map<const PTNode*, OpStats>& op_stats() const {
    return op_stats_;
  }

  /// Spill activity since the last reset: partitioned spill files written
  /// and read back.
  const SpillStats& spill_stats() const { return spill_stats_; }

 private:
  friend class ResultCursor;

  /// Builds the engine that evaluates `plan` under `options`, wired to this
  /// executor's counters, op stats, fix cache, spill stats and worker pool.
  /// ExecuteStream is its one caller.
  std::unique_ptr<BatchEngine> MakeEngine(const PTNode& plan,
                                          const ExecOptions& options);

  /// Returns the shared worker pool for `threads` workers, creating it on
  /// first use. Returns null for sequential execution. One pool per distinct
  /// size is kept alive until the executor dies: unfinished streaming
  /// cursors hold raw pointers into their pool, so requesting a different
  /// exec_threads must never destroy a pool already handed out.
  ThreadPool* PoolFor(size_t threads);

  /// Bumps the process-wide rodin.exec.* metrics for one finished cursor:
  /// `rows` is what its root emitted, also when the run failed.
  void EmitExecMetrics(size_t rows);

  Database* db_;
  CostParams params_;
  ExecCounters counters_;
  /// counters_.method_cost in 2^-20 fixed point — the summation domain, so
  /// that morsel-parallel partial sums merge order-independently. The
  /// double mirror is refreshed whenever the fp value changes.
  uint64_t method_cost_fp_ = 0;
  uint64_t start_misses_ = 0;
  bool collect_op_stats_ = false;
  SpillStats spill_stats_;
  obs::Tracer* tracer_ = nullptr;
  std::map<const PTNode*, OpStats> op_stats_;
  /// Worker pools by size, shared across queries; see PoolFor().
  std::vector<std::unique_ptr<ThreadPool>> pools_;

  /// Memoized fixpoint results, keyed by plan fingerprint: a view consumed
  /// by several predicate nodes is instantiated (cloned) into each
  /// consumer's plan; the data is immutable, so the second occurrence costs
  /// one temp scan instead of a recomputation. Fixpoints that reference an
  /// enclosing fixpoint's delta are not cacheable. Kept for the executor's
  /// lifetime.
  std::map<std::string, FixCacheEntry> fix_cache_;
};

}  // namespace rodin

#endif  // RODIN_EXEC_EXECUTOR_H_
