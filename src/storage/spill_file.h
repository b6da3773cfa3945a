#ifndef RODIN_STORAGE_SPILL_FILE_H_
#define RODIN_STORAGE_SPILL_FILE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "storage/value.h"

namespace rodin {

/// An anonymous on-disk overflow file holding one operator's working set
/// when it does not fit the query's page budget (graceful degradation
/// instead of kResourceExhausted; see docs/ROBUSTNESS.md).
///
/// Backed by tmpfile(): the file has no name, lives in the system temp
/// directory and is reclaimed by the OS the moment the SpillFile is
/// destroyed — or the process dies. An aborted run (cancel, deadline)
/// therefore needs no cleanup: it unwinds its operator tree and every
/// SpillFile goes with it.
///
/// Write phase (single-threaded, coordinator only): AppendRow() serializes
/// rows into a buffered byte stream; Finish() flushes and freezes the file.
/// Read phase (after Finish): ReadRow()/ReadAll() use positioned reads
/// (pread) so any number of morsel workers can read concurrently without a
/// shared cursor or lock.
///
/// Spilled bytes deliberately do NOT flow through the BufferPool: the pool
/// is a *simulator* of the paper's page accesses and MeasuredCost must stay
/// bit-identical spill-on vs. all-in-memory (the accounting spine). Spill
/// I/O is tracked separately in SpillStats / rodin.spill.* metrics.
class SpillFile {
 public:
  SpillFile();
  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Serializes and appends one row. Write phase only (before Finish).
  void AppendRow(const std::vector<Value>& row);

  /// Flushes buffered writes and freezes the file for reading.
  void Finish();

  size_t rows() const { return offsets_.size(); }
  uint64_t bytes() const { return bytes_; }

  /// Number of `partition_pages`-sized partitions the payload divides into
  /// (Grace-style partition count for the rodin.spill.partitions metric);
  /// at least 1 once any row was written. partition_pages == 0 counts the
  /// whole file as one partition.
  uint64_t Partitions(uint64_t partition_pages) const;

  /// Reads row `i` back. Thread-safe after Finish() (positioned pread; no
  /// shared state is mutated).
  std::vector<Value> ReadRow(size_t i) const;

  /// Reads every row back, in append order, into `out` (appended).
  void ReadAll(std::vector<std::vector<Value>>* out) const;

 private:
  void FlushBuffer();

  FILE* file_ = nullptr;
  int fd_ = -1;
  /// Byte offset of each row's serialized form; lengths derive from the
  /// next offset (or bytes_ for the last row). Kept in memory: ~8 bytes per
  /// spilled row, the deliberate memory floor of a spill.
  std::vector<uint64_t> offsets_;
  uint64_t bytes_ = 0;
  std::string buffer_;
  uint64_t flushed_ = 0;
  bool finished_ = false;
};

}  // namespace rodin

#endif  // RODIN_STORAGE_SPILL_FILE_H_
