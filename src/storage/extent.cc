#include "storage/extent.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"

namespace rodin {

uint32_t Extent::Insert(std::vector<Value> fields) {
  RODIN_CHECK(!finalized(), "insert after layout finalization");
  RODIN_CHECK(fields.size() == num_fields_, "field count mismatch");
  records_.push_back(std::move(fields));
  return static_cast<uint32_t>(records_.size() - 1);
}

std::vector<Value>& Extent::MutableRecord(uint32_t slot) {
  RODIN_CHECK(slot < records_.size(), "slot out of range");
  return records_[slot];
}

void Extent::EnsureMutable() {
  if (deleted_.size() < records_.size()) deleted_.resize(records_.size(), 0);
}

void Extent::Apply(const std::vector<ResolvedMutationOp>& ops,
                   const PageAlloc& alloc) {
  for (const ResolvedMutationOp& op : ops) {
    switch (op.kind) {
      case MutationOpKind::kInsert:
        ApplyInsert(op.fields, op.hfrag, alloc);
        break;
      case MutationOpKind::kDelete:
        ApplyDelete(op.slot);
        break;
      case MutationOpKind::kUpdate:
        ApplyUpdate(op.slot, op.assigns);
        break;
    }
  }
  if (!ops.empty()) RebuildScanPages();
}

uint32_t Extent::ApplyInsert(std::vector<Value> fields, uint16_t hfrag,
                             const PageAlloc& alloc) {
  RODIN_CHECK(finalized(), "post-finalize insert before layout");
  RODIN_CHECK(fields.size() == num_fields_, "field count mismatch");
  RODIN_CHECK(hfrag < num_hfrags_, "insert hfrag out of range");
  EnsureMutable();
  if (append_.size() < num_vfrags_) append_.resize(num_vfrags_);
  if (frag_bytes_.size() < num_vfrags_) frag_bytes_.resize(num_vfrags_, 8);

  const uint32_t slot = static_cast<uint32_t>(records_.size());
  records_.push_back(std::move(fields));
  deleted_.push_back(0);
  hfrag_of_.push_back(hfrag);
  for (uint16_t v = 0; v < num_vfrags_; ++v) {
    AppendState& st = append_[v];
    const uint64_t need = std::min(frag_bytes_[v], kPageSizeBytes);
    if (need > st.bytes_left) {
      st.current = alloc(1);
      st.bytes_left = kPageSizeBytes;
    }
    st.bytes_left -= std::min(need, st.bytes_left);
    page_of_[v].push_back(st.current);
  }
  slots_of_hfrag_[hfrag].push_back(slot);
  return slot;
}

void Extent::ApplyDelete(uint32_t slot) {
  RODIN_CHECK(slot < records_.size(), "delete slot out of range");
  EnsureMutable();
  RODIN_CHECK(deleted_[slot] == 0, "double delete");
  deleted_[slot] = 1;
  ++num_deleted_;
  std::vector<uint32_t>& slots = slots_of_hfrag_[hfrag_of_[slot]];
  slots.erase(std::remove(slots.begin(), slots.end(), slot), slots.end());
}

void Extent::ApplyUpdate(uint32_t slot,
                         const std::vector<std::pair<int, Value>>& assigns) {
  RODIN_CHECK(alive(slot), "update of dead slot");
  for (const auto& [field, v] : assigns) {
    RODIN_CHECK(field >= 0 && static_cast<uint32_t>(field) < num_fields_,
                "update field out of range");
    records_[slot][field] = v;
  }
}

void Extent::RebuildScanPages() {
  scan_pages_.assign(num_vfrags_, {});
  for (uint16_t v = 0; v < num_vfrags_; ++v) {
    scan_pages_[v].assign(num_hfrags_, {});
    for (uint16_t h = 0; h < num_hfrags_; ++h) {
      std::unordered_set<PageId> seen;
      for (uint32_t slot : slots_of_hfrag_[h]) {
        const PageId p = page_of_[v][slot];
        if (seen.insert(p).second) scan_pages_[v][h].push_back(p);
      }
    }
  }
}

}  // namespace rodin
