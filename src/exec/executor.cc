#include "exec/executor.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/check.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "exec/batch_engine.h"
#include "exec/result_cursor.h"
#include "obs/metrics.h"

namespace rodin {

TempFile AllocateTempFile(Database* db, size_t rows, size_t ncols) {
  const uint64_t bytes =
      static_cast<uint64_t>(rows) * 16 * std::max<size_t>(1, ncols);
  TempFile temp;
  temp.pages =
      std::max<uint64_t>(1, (bytes + kPageSizeBytes - 1) / kPageSizeBytes);
  temp.first = db->AllocatePages(temp.pages);
  return temp;
}

void ChargeTempScan(const TempFile& temp, PageCharger* charger) {
  for (uint64_t p = 0; p < temp.pages; ++p) charger->Charge(temp.first + p);
}

Executor::Executor(Database* db, CostParams params)
    : db_(db), params_(params) {
  RODIN_CHECK(db != nullptr, "null database");
  RODIN_CHECK(db->finalized(), "executor needs a finalized database");
  start_misses_ = db_->buffer_pool().stats().misses;
}

Executor::~Executor() = default;

double Executor::MeasuredCost() const {
  // Saturating delta: a concurrent session's ResetMeasurement can move the
  // shared pool's miss counter below this executor's watermark; clamp to 0
  // instead of wrapping into an absurd cost.
  const uint64_t now = db_->buffer_pool().stats().misses;
  const double misses =
      now >= start_misses_ ? static_cast<double>(now - start_misses_) : 0.0;
  return misses * params_.pr +
         static_cast<double>(counters_.predicate_evals) * params_.ev_tuple +
         counters_.method_cost * params_.method_weight;
}

void Executor::ResetMeasurement(bool clear_buffer) {
  counters_ = ExecCounters{};
  method_cost_fp_ = 0;
  spill_stats_ = SpillStats{};
  op_stats_.clear();
  if (clear_buffer) {
    db_->buffer_pool().Clear();
  } else {
    db_->buffer_pool().ResetStats();
  }
  start_misses_ = db_->buffer_pool().stats().misses;
}

void Executor::ResetMeasurementShared() {
  counters_ = ExecCounters{};
  method_cost_fp_ = 0;
  spill_stats_ = SpillStats{};
  op_stats_.clear();
  start_misses_ = db_->buffer_pool().stats().misses;
}

ThreadPool* Executor::PoolFor(size_t threads) {
  if (threads <= 1) return nullptr;
  for (const auto& pool : pools_) {
    if (pool->thread_count() == threads) return pool.get();
  }
  pools_.push_back(std::make_unique<ThreadPool>(threads));
  return pools_.back().get();
}

namespace {

const char* SpillOpName(SpillOpTag tag) {
  switch (tag) {
    case SpillOpTag::kJoinBuild:
      return "join-build";
    case SpillOpTag::kFixDelta:
      return "fix-delta";
    case SpillOpTag::kDedup:
      return "dedup";
    case SpillOpTag::kFixCache:
      return "fix-cache";
    case SpillOpTag::kUnion:
      return "union";
  }
  return "unknown";
}

}  // namespace

Status MakeResourceExhausted(SpillOpTag tag, uint64_t requested,
                             uint64_t budget, uint64_t live) {
  const uint64_t remaining = budget > live ? budget - live : 0;
  Status s = Status::Error(
      Status::Code::kResourceExhausted,
      StrFormat("%s: a single row needs %llu page(s), more than the whole "
                "%llu-page budget — no partitioning can split one row",
                SpillOpName(tag), static_cast<unsigned long long>(requested),
                static_cast<unsigned long long>(budget)));
  s.detail = PackResourceDetail(tag, requested, remaining);
  return s;
}

/// Pages one row of `ncols` columns occupies in the 16-bytes-per-value temp
/// model; a row wider than the whole budget cannot be spilled around.
uint64_t TempRowPages(size_t ncols) {
  const uint64_t bytes = 16 * std::max<size_t>(1, ncols);
  return std::max<uint64_t>(1, (bytes + kPageSizeBytes - 1) / kPageSizeBytes);
}

void Executor::EmitExecMetrics(size_t rows) {
  static obs::Counter* execs =
      obs::MetricsRegistry::Global().GetCounter("rodin.exec.executions");
  static obs::Counter* produced =
      obs::MetricsRegistry::Global().GetCounter("rodin.exec.rows_produced");
  execs->Add(1);
  produced->Add(rows);
}

// --- Entry points ----------------------------------------------------------

Table Executor::Execute(const PTNode& plan) {
  return Execute(plan, ExecOptions{});
}

Table Executor::Execute(const PTNode& plan, const ExecOptions& options) {
  Table out;
  ExecuteInto(plan, options, &out);
  return out;
}

std::unique_ptr<BatchEngine> Executor::MakeEngine(const PTNode& plan,
                                                  const ExecOptions& options) {
  BatchEngine::Config cfg;
  cfg.db = db_;
  cfg.batch_rows = options.batch_rows;
  cfg.exec_threads = options.exec_threads;
  cfg.pool = PoolFor(options.exec_threads);
  cfg.fix_cache = &fix_cache_;
  cfg.collect_op_stats = collect_op_stats_;
  cfg.op_stats = &op_stats_;
  cfg.counters = &counters_;
  cfg.method_cost_fp = &method_cost_fp_;
  cfg.query = options.query;
  cfg.spill_stats = &spill_stats_;
  return std::make_unique<BatchEngine>(cfg, plan);
}

Status Executor::ExecuteInto(const PTNode& plan, const ExecOptions& options,
                             Table* out) {
  ResultCursor cursor = ExecuteStream(plan, options);
  *out = cursor.ToTable();
  if (!cursor.ok()) out->rows.clear();
  return cursor.status();
}

}  // namespace rodin
