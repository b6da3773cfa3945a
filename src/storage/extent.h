#ifndef RODIN_STORAGE_EXTENT_H_
#define RODIN_STORAGE_EXTENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "storage/buffer_pool.h"
#include "storage/value.h"
#include "txn/mutation.h"

namespace rodin {

/// One mutation op with names already resolved against the schema: fields
/// are storage positions, the target a slot of this extent, an insert's
/// horizontal fragment precomputed. Database::Apply validates a
/// MutationBatch and lowers it to these before calling Extent::Apply.
struct ResolvedMutationOp {
  MutationOpKind kind = MutationOpKind::kInsert;
  /// Delete/update target slot.
  uint32_t slot = 0;
  /// Insert: the full record in storage-field order.
  std::vector<Value> fields;
  /// Insert: horizontal fragment of the new record.
  uint16_t hfrag = 0;
  /// Update: (field position, new value) assignments.
  std::vector<std::pair<int, Value>> assigns;
};

/// Storage for the instances of one class or relation. A record is a vector
/// of field Values in AllAttributes() order (stored attributes only).
///
/// The extent also carries the *physical layout* computed by
/// Database::Finalize(): the mapping of each record to pages, per vertical
/// and horizontal fragment. An (extent, vfrag, hfrag) triple is an *atomic
/// entity* in the paper's sense — the leaves of processing trees.
///
/// After Finalize the extent is no longer append-only: the write path
/// (Database::Apply, under the single-writer TxnManager protocol) mutates
/// it through Apply/ApplyInsert/ApplyDelete/ApplyUpdate. Deletes are
/// tombstones — the slot stays addressable (records_ never shrinks, so
/// oids are stable forever) but drops out of SlotsOfHfrag/ScanPages and of
/// live_size(). Inserts append to fresh pages via a per-vertical-fragment
/// packer; the original clustering is not extended to post-finalize rows.
class Extent {
 public:
  Extent(std::string name, uint32_t num_fields)
      : name_(std::move(name)), num_fields_(num_fields) {}

  Extent(const Extent&) = delete;
  Extent& operator=(const Extent&) = delete;

  const std::string& name() const { return name_; }
  uint32_t num_fields() const { return num_fields_; }
  uint32_t size() const { return static_cast<uint32_t>(records_.size()); }

  /// Appends a record; returns its slot. Only valid before Finalize.
  uint32_t Insert(std::vector<Value> fields);

  const std::vector<Value>& Record(uint32_t slot) const {
    RODIN_CHECK(slot < records_.size(), "slot out of range");
    return records_[slot];
  }
  std::vector<Value>& MutableRecord(uint32_t slot);

  // --- Liveness (write path) ----------------------------------------------

  /// False once the slot has been deleted (tombstoned). Slots past the end
  /// are not alive.
  bool alive(uint32_t slot) const {
    return slot < records_.size() &&
           (slot >= deleted_.size() || deleted_[slot] == 0);
  }
  /// Records minus tombstones.
  uint32_t live_size() const {
    return static_cast<uint32_t>(records_.size()) - num_deleted_;
  }

  // --- Mutation primitives (called by Database::Apply, post-Finalize) -----

  /// Allocator for fresh pages; receives a page count, returns the first id
  /// of a contiguous range (Database::AllocatePages bound by the caller).
  using PageAlloc = std::function<PageId(uint64_t)>;

  /// Applies pre-resolved ops in order. All validation has happened by the
  /// time this runs; layout structures (page_of_, slots_of_hfrag_,
  /// scan_pages_) are maintained. Aborts via CHECK on malformed input.
  void Apply(const std::vector<ResolvedMutationOp>& ops,
             const PageAlloc& alloc);

  /// Appends a record post-finalize, packing each vertical fragment onto
  /// append pages (allocating via `alloc` when the current one fills).
  /// Returns the new slot.
  uint32_t ApplyInsert(std::vector<Value> fields, uint16_t hfrag,
                       const PageAlloc& alloc);
  /// Tombstones a live slot and removes it from its hfrag scan list.
  void ApplyDelete(uint32_t slot);
  /// Overwrites fields of a live slot in place.
  void ApplyUpdate(uint32_t slot,
                   const std::vector<std::pair<int, Value>>& assigns);
  /// Recomputes ScanPages from the current page/slot structures (distinct
  /// pages in first-touch order per (v, h)). Called once per Apply batch.
  void RebuildScanPages();

  // --- Layout (populated by Database::Finalize) ---------------------------

  uint16_t num_vfrags() const { return num_vfrags_; }
  uint16_t num_hfrags() const { return num_hfrags_; }
  bool finalized() const { return !page_of_.empty(); }

  /// Fields (storage positions) belonging to vertical fragment `v`.
  const std::vector<int>& VfragFields(uint16_t v) const {
    return vfrag_fields_[v];
  }

  /// Vertical fragment containing field `field`.
  uint16_t VfragOfField(int field) const { return vfrag_of_field_[field]; }

  /// Horizontal fragment of a record.
  uint16_t HfragOf(uint32_t slot) const { return hfrag_of_[slot]; }

  /// Page holding the `v` fragment of record `slot`.
  PageId PageOf(uint32_t slot, uint16_t v) const { return page_of_[v][slot]; }

  /// Distinct pages touched by a full scan of atomic entity (v, h), in scan
  /// order.
  const std::vector<PageId>& ScanPages(uint16_t v, uint16_t h) const {
    return scan_pages_[v][h];
  }

  /// Slots belonging to horizontal fragment `h`, in scan order. Tombstoned
  /// slots are removed, so scans never see deleted records.
  const std::vector<uint32_t>& SlotsOfHfrag(uint16_t h) const {
    return slots_of_hfrag_[h];
  }

 private:
  friend class Database;

  /// Grows liveness bookkeeping to cover every current slot.
  void EnsureMutable();

  std::string name_;
  uint32_t num_fields_;
  std::vector<std::vector<Value>> records_;

  /// Tombstone bitmap, lazily grown to records_.size() by the write path
  /// (all-alive while shorter).
  std::vector<uint8_t> deleted_;
  uint32_t num_deleted_ = 0;

  uint16_t num_vfrags_ = 1;
  uint16_t num_hfrags_ = 1;
  std::vector<std::vector<int>> vfrag_fields_;
  std::vector<uint16_t> vfrag_of_field_;
  std::vector<uint16_t> hfrag_of_;
  std::vector<std::vector<PageId>> page_of_;                // [v][slot]
  std::vector<std::vector<std::vector<PageId>>> scan_pages_;  // [v][h]
  std::vector<std::vector<uint32_t>> slots_of_hfrag_;       // [h]

  /// Bytes one record contributes to vertical fragment v (set at Finalize;
  /// drives the append packer).
  std::vector<uint64_t> frag_bytes_;
  /// Append packer state per vertical fragment: the page currently being
  /// filled by post-finalize inserts and its remaining capacity.
  struct AppendState {
    PageId current = 0;
    uint64_t bytes_left = 0;
  };
  std::vector<AppendState> append_;
};

}  // namespace rodin

#endif  // RODIN_STORAGE_EXTENT_H_
