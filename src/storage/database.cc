#include "storage/database.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <unordered_set>

#include "common/check.h"
#include "common/string_util.h"
#include "txn/txn_manager.h"

namespace rodin {

std::string EntityRef::ToString() const {
  std::string out = extent;
  if (vfrag != 0) out += StrFormat(".v%u", vfrag);
  if (hfrag != 0) out += StrFormat(".h%u", hfrag);
  return out;
}

Database::Database(const Schema* schema) : schema_(schema) {
  RODIN_CHECK(schema != nullptr, "null schema");
  pool_ = std::make_unique<BufferPool>(256);
  for (const auto& cls : schema->classes()) {
    uint32_t stored = 0;
    for (const Attribute& a : cls->AllAttributes()) {
      if (!a.computed) ++stored;
    }
    RODIN_CHECK(cls->id() == extents_.size(), "class ids must be dense");
    ExtentInfo info;
    info.extent = std::make_unique<Extent>(cls->name(), stored);
    info.is_relation = false;
    info.id = cls->id();
    info.cls = cls.get();
    extents_.push_back(std::move(info));
  }
  num_classes_ = extents_.size();
  for (const auto& rel : schema->relations()) {
    RODIN_CHECK(rel->id() == extents_.size() - num_classes_,
                "relation ids must be dense");
    ExtentInfo info;
    info.extent = std::make_unique<Extent>(
        rel->name(), static_cast<uint32_t>(rel->AllAttributes().size()));
    info.is_relation = true;
    info.id = rel->id();
    extents_.push_back(std::move(info));
  }
}

Database::~Database() { TxnManager::Forget(this); }

Database::ExtentInfo* Database::FindInfo(const std::string& name) {
  for (ExtentInfo& info : extents_) {
    if (info.extent->name() == name) return &info;
  }
  return nullptr;
}

const Database::ExtentInfo* Database::FindInfo(const std::string& name) const {
  for (const ExtentInfo& info : extents_) {
    if (info.extent->name() == name) return &info;
  }
  return nullptr;
}

const Database::ExtentInfo* Database::InfoOf(Oid oid) const {
  const ExtentInfo* info = InfoOfOrNull(oid);
  RODIN_CHECK(info != nullptr, "oid does not match any extent");
  return info;
}

Database::FieldBinding Database::BindField(size_t extent_index,
                                           const std::string& attr) const {
  RODIN_CHECK(finalized_, "field binding before Finalize");
  RODIN_CHECK(extent_index < extents_.size(), "extent index out of range");
  const ExtentInfo& info = extents_[extent_index];
  FieldBinding b;
  b.extent = info.extent.get();
  if (info.cls != nullptr) {
    const Attribute* a = info.cls->FindAttribute(attr);
    if (a != nullptr && a->computed) {
      b.kind = FieldBinding::Kind::kComputed;
      b.method_cost = a->method_cost;
      b.method = FindMethod(info.cls, attr);
      return b;
    }
  }
  b.field = FieldIndex(info.extent->name(), attr);
  if (b.field >= 0) {
    b.kind = FieldBinding::Kind::kStored;
    b.vfrag = b.extent->VfragOfField(b.field);
  }
  return b;
}

Oid Database::NewObject(const std::string& class_name) {
  RODIN_CHECK(!finalized_, "NewObject after Finalize");
  ExtentInfo* info = FindInfo(class_name);
  RODIN_CHECK(info != nullptr && !info->is_relation, "unknown class");
  std::vector<Value> fields(info->extent->num_fields());
  const uint32_t slot = info->extent->Insert(std::move(fields));
  return Oid{info->id, slot};
}

int Database::FieldIndex(const std::string& extent_name,
                         const std::string& attr) const {
  if (const ClassDef* cls = schema_->FindClass(extent_name)) {
    int idx = 0;
    for (const Attribute& a : cls->AllAttributes()) {
      if (a.computed) continue;
      if (a.name == attr) return idx;
      ++idx;
    }
    return -1;
  }
  if (const RelationDef* rel = schema_->FindRelation(extent_name)) {
    return rel->AttributeIndex(attr);
  }
  return -1;
}

void Database::Set(Oid oid, const std::string& attr, Value v) {
  RODIN_CHECK(!finalized_, "Set after Finalize");
  const ExtentInfo* info = InfoOf(oid);
  const int field = FieldIndex(info->extent->name(), attr);
  RODIN_CHECK(field >= 0, "unknown or computed attribute in Set");
  const_cast<Extent*>(info->extent.get())->MutableRecord(oid.slot)[field] =
      std::move(v);
}

Oid Database::InsertTuple(const std::string& relation,
                          std::vector<Value> fields) {
  RODIN_CHECK(!finalized_, "InsertTuple after Finalize");
  ExtentInfo* info = FindInfo(relation);
  RODIN_CHECK(info != nullptr && info->is_relation, "unknown relation");
  const uint32_t slot = info->extent->Insert(std::move(fields));
  return Oid{info->id | kRelationOidBit, slot};
}

void Database::RegisterMethod(const std::string& class_name,
                              const std::string& attr, MethodFn fn) {
  const ClassDef* cls = schema_->FindClass(class_name);
  RODIN_CHECK(cls != nullptr, "unknown class in RegisterMethod");
  const Attribute* a = cls->FindAttribute(attr);
  RODIN_CHECK(a != nullptr && a->computed, "method must be a computed attribute");
  methods_[{class_name, attr}] = std::move(fn);
}

const Database::MethodFn* Database::FindMethod(const ClassDef* cls,
                                               const std::string& attr) const {
  // Methods are inherited: the nearest registered body wins.
  for (const ClassDef* c = cls; c != nullptr; c = c->super()) {
    auto it = methods_.find({c->name(), attr});
    if (it != methods_.end()) return &it->second;
  }
  return nullptr;
}

Value Database::GetRaw(Oid oid, const std::string& attr) const {
  const ExtentInfo* info = InfoOf(oid);
  const int field = FieldIndex(info->extent->name(), attr);
  RODIN_CHECK(field >= 0, "unknown or computed attribute in GetRaw");
  return info->extent->Record(oid.slot)[field];
}

const std::vector<Value>& Database::RecordOf(Oid oid) const {
  const ExtentInfo* info = InfoOf(oid);
  return info->extent->Record(oid.slot);
}

const Extent* Database::FindExtent(const std::string& name) const {
  const ExtentInfo* info = FindInfo(name);
  return info == nullptr ? nullptr : info->extent.get();
}

Extent* Database::FindExtentMutable(const std::string& name) {
  ExtentInfo* info = FindInfo(name);
  return info == nullptr ? nullptr : info->extent.get();
}

bool Database::IsRelation(const std::string& name) const {
  const ExtentInfo* info = FindInfo(name);
  return info != nullptr && info->is_relation;
}

const Extent* Database::ExtentOf(Oid oid) const { return InfoOf(oid)->extent.get(); }

const std::string& Database::ExtentNameOf(Oid oid) const {
  return InfoOf(oid)->extent->name();
}

PageId Database::AllocatePages(uint64_t n) {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  const PageId first = next_page_;
  next_page_ += n;
  return first;
}

const Database::ExtentInfo* Database::InfoOfOrNull(Oid oid) const {
  const uint32_t id = oid.class_id & ~kRelationOidBit;
  const size_t index = IsRelationOid(oid) ? num_classes_ + id : id;
  const size_t end = IsRelationOid(oid) ? extents_.size() : num_classes_;
  return index < end ? &extents_[index] : nullptr;
}

Status Database::Apply(const MutationBatch& batch, MutationResult* result) {
  RODIN_CHECK(finalized_, "Apply before Finalize");
  RODIN_CHECK(result != nullptr, "Apply needs a result out-param");
  *result = MutationResult{};
  auto fail = [](std::string msg) {
    return Status::Error(Status::Code::kInvalidArgument, std::move(msg));
  };

  struct Planned {
    size_t ext = 0;  // index into extents_
    ResolvedMutationOp op;
    std::vector<std::string> assign_attrs;  // parallel to op.assigns
  };
  std::vector<Planned> planned;
  std::vector<uint32_t> extra(extents_.size(), 0);  // staged inserts, per extent
  std::set<Oid> batch_deletes;
  std::set<Oid> batch_updates;
  // (extent index, slot, field) already assigned by an earlier update — two
  // assignments to one field would make the index delta ambiguous.
  std::set<std::tuple<size_t, uint32_t, int>> assigned;

  auto base_id = [](const ExtentInfo& info) {
    return info.is_relation ? (info.id | kRelationOidBit) : info.id;
  };
  auto ext_index = [&](const ExtentInfo* info) {
    return static_cast<size_t>(info - extents_.data());
  };

  // Pass 1: resolve names to storage positions, assign provisional slots to
  // inserts (exact under the single-writer protocol: slots are append-only
  // and this batch is the only writer), collect delete/update target sets.
  for (const MutationOp& op : batch.ops) {
    const ExtentInfo* info = FindInfo(op.extent);
    if (info == nullptr) {
      return fail("mutation on unknown extent '" + op.extent + "'");
    }
    const size_t ei = ext_index(info);
    const Extent* e = info->extent.get();
    const HorizontalSpec* hspec = config_.FindHorizontal(op.extent);
    Planned p;
    p.ext = ei;
    p.op.kind = op.kind;
    switch (op.kind) {
      case MutationOpKind::kInsert: {
        std::vector<Value> fields(e->num_fields());
        for (const auto& [attr, val] : op.values) {
          const int f = FieldIndex(op.extent, attr);
          if (f < 0) {
            return fail("insert into '" + op.extent +
                        "': unknown or computed attribute '" + attr + "'");
          }
          fields[f] = val;
        }
        uint16_t h = 0;
        if (hspec != nullptr && hspec->num_fragments > 1) {
          const int hf = FieldIndex(op.extent, hspec->attr);
          RODIN_CHECK(hf >= 0, "horizontal attr missing");
          h = static_cast<uint16_t>(fields[hf].Hash() % hspec->num_fragments);
        }
        p.op.fields = std::move(fields);
        p.op.hfrag = h;
        p.op.slot = e->size() + extra[ei];  // predicted slot
        result->new_oids.push_back(Oid{base_id(*info), p.op.slot});
        ++extra[ei];
        break;
      }
      case MutationOpKind::kDelete: {
        if (op.target.class_id != base_id(*info)) {
          return fail("delete target does not belong to extent '" + op.extent +
                      "'");
        }
        if (!e->alive(op.target.slot)) {
          return fail("delete of dead or out-of-range slot in '" + op.extent +
                      "'");
        }
        if (!batch_deletes.insert(op.target).second) {
          return fail("duplicate delete of one oid in a batch");
        }
        p.op.slot = op.target.slot;
        break;
      }
      case MutationOpKind::kUpdate: {
        if (op.target.class_id != base_id(*info)) {
          return fail("update target does not belong to extent '" + op.extent +
                      "'");
        }
        if (!e->alive(op.target.slot)) {
          return fail("update of dead or out-of-range slot in '" + op.extent +
                      "'");
        }
        for (const auto& [attr, val] : op.values) {
          const int f = FieldIndex(op.extent, attr);
          if (f < 0) {
            return fail("update of '" + op.extent +
                        "': unknown or computed attribute '" + attr + "'");
          }
          if (hspec != nullptr && hspec->num_fragments > 1 &&
              attr == hspec->attr) {
            return fail("cannot update horizontal-fragmentation attribute '" +
                        attr + "' of '" + op.extent +
                        "' (records do not migrate between fragments)");
          }
          if (!assigned.insert({ei, op.target.slot, f}).second) {
            return fail("two updates assign one field of one oid in a batch");
          }
          p.op.assigns.emplace_back(f, val);
          p.assign_attrs.push_back(attr);
        }
        p.op.slot = op.target.slot;
        batch_updates.insert(op.target);
        break;
      }
    }
    planned.push_back(std::move(p));
  }
  for (const Oid& oid : batch_updates) {
    if (batch_deletes.count(oid) > 0) {
      return fail("a batch both updates and deletes one oid");
    }
  }

  // Pass 2: every ref the batch writes must resolve to a live oid — either
  // pre-existing and not deleted by this batch, or created by one of this
  // batch's own inserts.
  auto ref_ok = [&](Oid oid) {
    const ExtentInfo* info = InfoOfOrNull(oid);
    if (info == nullptr) return false;
    if (batch_deletes.count(oid) > 0) return false;
    if (info->extent->alive(oid.slot)) return true;
    const size_t ei = ext_index(info);
    return oid.slot >= info->extent->size() &&
           oid.slot < info->extent->size() + extra[ei];
  };
  std::function<bool(const Value&)> value_refs_ok = [&](const Value& v) {
    if (v.is_ref()) return ref_ok(v.AsRef());
    if (v.is_collection()) {
      for (const Value& ev : v.AsCollection().elems) {
        if (!value_refs_ok(ev)) return false;
      }
    }
    return true;
  };
  for (const Planned& p : planned) {
    if (p.op.kind == MutationOpKind::kInsert) {
      for (const Value& v : p.op.fields) {
        if (!value_refs_ok(v)) return fail("mutation writes a dangling ref");
      }
    } else if (p.op.kind == MutationOpKind::kUpdate) {
      for (const auto& [f, v] : p.op.assigns) {
        if (!value_refs_ok(v)) return fail("mutation writes a dangling ref");
      }
    }
  }

  // Pass 3: referential integrity of deletes — after the batch, no live
  // record may still reference a deleted oid. Updated fields are judged by
  // their new values (an update may exist precisely to drop such a ref);
  // everything else by its current ones.
  if (!batch_deletes.empty()) {
    std::map<std::pair<size_t, uint32_t>, const Planned*> updates;
    for (const Planned& p : planned) {
      if (p.op.kind == MutationOpKind::kUpdate) {
        updates[{p.ext, p.op.slot}] = &p;
      }
    }
    std::function<bool(const Value&)> hits_deleted = [&](const Value& v) {
      if (v.is_ref()) return batch_deletes.count(v.AsRef()) > 0;
      if (v.is_collection()) {
        for (const Value& ev : v.AsCollection().elems) {
          if (hits_deleted(ev)) return true;
        }
      }
      return false;
    };
    for (size_t ei = 0; ei < extents_.size(); ++ei) {
      const Extent* e = extents_[ei].extent.get();
      const uint32_t base = base_id(extents_[ei]);
      for (uint32_t s = 0; s < e->size(); ++s) {
        if (!e->alive(s)) continue;
        if (batch_deletes.count(Oid{base, s}) > 0) continue;
        const auto up = updates.find({ei, s});
        const std::vector<Value>& rec = e->Record(s);
        for (uint32_t f = 0; f < e->num_fields(); ++f) {
          const Value* v = &rec[f];
          if (up != updates.end()) {
            for (const auto& [af, av] : up->second->op.assigns) {
              if (static_cast<uint32_t>(af) == f) v = &av;
            }
          }
          if (hits_deleted(*v)) {
            return fail("delete would leave a dangling ref from '" +
                        e->name() + "'");
          }
        }
      }
    }
  }

  // Pre-apply: selection-index deltas need the *old* values of deleted and
  // reassigned fields, so gather them before records change.
  struct SelDelta {
    std::vector<std::pair<Value, uint64_t>> removes, adds;
  };
  std::vector<SelDelta> sel_deltas(sel_indexes_.size());
  for (size_t i = 0; i < sel_indexes_.size(); ++i) {
    const ExtentInfo* info = FindInfo(sel_index_extent_[i]);
    RODIN_CHECK(info != nullptr, "sel index extent vanished");
    const size_t ei = ext_index(info);
    const int f = FieldIndex(sel_index_extent_[i], sel_indexes_[i]->attr());
    RODIN_CHECK(f >= 0, "sel index attribute vanished");
    for (const Planned& p : planned) {
      if (p.ext != ei) continue;
      switch (p.op.kind) {
        case MutationOpKind::kInsert: {
          const Value& v = p.op.fields[f];
          if (!v.is_null()) sel_deltas[i].adds.emplace_back(v, p.op.slot);
          break;
        }
        case MutationOpKind::kDelete: {
          const Value& v = info->extent->Record(p.op.slot)[f];
          if (!v.is_null()) sel_deltas[i].removes.emplace_back(v, p.op.slot);
          break;
        }
        case MutationOpKind::kUpdate: {
          for (const auto& [af, av] : p.op.assigns) {
            if (af != f) continue;
            const Value& old = info->extent->Record(p.op.slot)[f];
            if (!old.is_null()) {
              sel_deltas[i].removes.emplace_back(old, p.op.slot);
            }
            if (!av.is_null()) sel_deltas[i].adds.emplace_back(av, p.op.slot);
          }
          break;
        }
      }
    }
  }

  // Which path indexes the batch can affect: a root-class insert/delete
  // grows/shrinks the entry head set; any op that writes (or could write) a
  // path attribute rewires instantiations. Rebuilds re-expand from live
  // records, so over-approximating here costs work, never correctness.
  std::vector<bool> path_affected(path_indexes_.size(), false);
  for (size_t k = 0; k < path_indexes_.size(); ++k) {
    const PathIndexSpec& spec = config_.path_indexes[k];
    const std::set<std::string> path_attrs(spec.path.begin(), spec.path.end());
    for (const Planned& p : planned) {
      const std::string& name = extents_[p.ext].extent->name();
      bool hit = false;
      if (p.op.kind == MutationOpKind::kUpdate) {
        for (const std::string& attr : p.assign_attrs) {
          if (path_attrs.count(attr) > 0) hit = true;
        }
      } else {
        if (name == spec.root_class) hit = true;
        for (const std::string& attr : path_attrs) {
          if (FieldIndex(name, attr) >= 0) hit = true;
        }
      }
      if (hit) {
        path_affected[k] = true;
        break;
      }
    }
  }

  // Apply: lower to per-extent op lists (batch order preserved within each
  // extent, which is all provisional-slot prediction relies on).
  const Extent::PageAlloc alloc = [this](uint64_t n) {
    return AllocatePages(n);
  };
  std::vector<std::vector<ResolvedMutationOp>> per_extent(extents_.size());
  for (const Planned& p : planned) per_extent[p.ext].push_back(p.op);
  for (size_t ei = 0; ei < extents_.size(); ++ei) {
    if (!per_extent[ei].empty()) extents_[ei].extent->Apply(per_extent[ei], alloc);
  }
  for (const Planned& p : planned) {
    switch (p.op.kind) {
      case MutationOpKind::kInsert:
        RODIN_CHECK(extents_[p.ext].extent->alive(p.op.slot),
                    "provisional slot prediction broke");
        ++result->inserted;
        break;
      case MutationOpKind::kDelete:
        ++result->deleted;
        break;
      case MutationOpKind::kUpdate:
        ++result->updated;
        break;
    }
  }

  // Index maintenance: selection indices patch incrementally; path indices
  // re-expand (instantiations are non-local in the edge set).
  for (size_t i = 0; i < sel_indexes_.size(); ++i) {
    if (sel_deltas[i].removes.empty() && sel_deltas[i].adds.empty()) continue;
    sel_indexes_[i]->Update(sel_deltas[i].removes, sel_deltas[i].adds, alloc);
  }
  for (size_t k = 0; k < path_indexes_.size(); ++k) {
    if (!path_affected[k]) continue;
    const PathIndexSpec& spec = config_.path_indexes[k];
    const ClassDef* root = schema_->FindClass(spec.root_class);
    RODIN_CHECK(root != nullptr, "path index root class vanished");
    path_indexes_[k]->Rebuild(ExpandPathEntries(spec, root->id()), alloc);
  }

  result->status = Status::Ok();
  return Status::Ok();
}

uint64_t Database::DeriveRecordBytes(const ExtentInfo& info) const {
  const uint64_t overridden =
      config_.RecordBytesOverride(info.extent->name());
  if (overridden > 0) return std::min(overridden, kPageSizeBytes);
  // Average the actual value footprints: 8B for scalars/refs, string length
  // + 8, 8B per collection element + 8 header.
  uint64_t total = 0;
  const uint32_t n = info.extent->size();
  if (n == 0) return 32;
  for (uint32_t s = 0; s < n; ++s) {
    for (const Value& v : info.extent->Record(s)) {
      if (v.is_string()) {
        total += 8 + v.AsString().size();
      } else if (v.is_collection()) {
        total += 8 + 8 * v.AsCollection().elems.size();
      } else {
        total += 8;
      }
    }
  }
  return std::min<uint64_t>(std::max<uint64_t>(8, total / n), kPageSizeBytes);
}

namespace {

/// Incremental packer of fixed-size records onto 4KB pages.
class PagePacker {
 public:
  explicit PagePacker(PageId first) : next_page_(first), bytes_left_(0) {}

  PageId Place(uint64_t record_bytes) {
    if (record_bytes > bytes_left_) {
      current_ = next_page_++;
      bytes_left_ = kPageSizeBytes;
    }
    bytes_left_ -= std::min(record_bytes, bytes_left_);
    return current_;
  }

  PageId end_page() const { return next_page_; }

 private:
  PageId next_page_;
  PageId current_ = 0;
  uint64_t bytes_left_;
};

}  // namespace

void Database::LayoutExtents() {
  // Fragment bookkeeping first: vertical groups and horizontal assignment.
  for (ExtentInfo& info : extents_) {
    Extent* e = info.extent.get();
    const std::string& name = e->name();

    // Vertical fragments.
    const VerticalSpec* vspec = config_.FindVertical(name);
    e->vfrag_fields_.clear();
    if (vspec == nullptr) {
      std::vector<int> all(e->num_fields());
      for (uint32_t i = 0; i < e->num_fields(); ++i) all[i] = i;
      e->vfrag_fields_.push_back(std::move(all));
    } else {
      for (const auto& group : vspec->groups) {
        std::vector<int> fields;
        for (const std::string& attr : group) {
          const int idx = FieldIndex(name, attr);
          RODIN_CHECK(idx >= 0, "vertical group names unknown attribute");
          fields.push_back(idx);
        }
        e->vfrag_fields_.push_back(std::move(fields));
      }
    }
    e->num_vfrags_ = static_cast<uint16_t>(e->vfrag_fields_.size());
    e->vfrag_of_field_.assign(e->num_fields(), 0);
    for (uint16_t v = 0; v < e->num_vfrags_; ++v) {
      for (int f : e->vfrag_fields_[v]) e->vfrag_of_field_[f] = v;
    }

    // Horizontal fragments.
    const HorizontalSpec* hspec = config_.FindHorizontal(name);
    e->num_hfrags_ = hspec == nullptr ? 1 : hspec->num_fragments;
    e->hfrag_of_.assign(e->size(), 0);
    if (hspec != nullptr && hspec->num_fragments > 1) {
      const int field = FieldIndex(name, hspec->attr);
      RODIN_CHECK(field >= 0, "horizontal attr missing");
      for (uint32_t s = 0; s < e->size(); ++s) {
        const Value& v = e->Record(s)[field];
        e->hfrag_of_[s] =
            static_cast<uint16_t>(v.Hash() % hspec->num_fragments);
      }
    }
    e->slots_of_hfrag_.assign(e->num_hfrags_, {});
    for (uint32_t s = 0; s < e->size(); ++s) {
      e->slots_of_hfrag_[e->hfrag_of_[s]].push_back(s);
    }
    e->page_of_.assign(e->num_vfrags_, std::vector<PageId>(e->size(), 0));

    info.record_bytes = DeriveRecordBytes(info);
  }

  // Per-vertical-fragment record size: proportional share of the record.
  auto frag_bytes = [&](const ExtentInfo& info, uint16_t v) -> uint64_t {
    const Extent* e = info.extent.get();
    if (e->num_fields() == 0) return info.record_bytes;
    const uint64_t share = info.record_bytes *
                           std::max<uint64_t>(1, e->vfrag_fields_[v].size()) /
                           std::max<uint32_t>(1u, e->num_fields());
    return std::max<uint64_t>(8, share);
  };
  // Remember the per-fragment record footprint: the write path's append
  // packer sizes post-finalize inserts with it.
  for (ExtentInfo& info : extents_) {
    Extent* e = info.extent.get();
    e->frag_bytes_.assign(e->num_vfrags_, 8);
    for (uint16_t v = 0; v < e->num_vfrags_; ++v) {
      e->frag_bytes_[v] = frag_bytes(info, v);
    }
  }

  // Which classes are clustering targets, and through which owner attr.
  std::set<std::string> cluster_targets;
  for (const ClusterSpec& c : config_.clustering) {
    const ClassDef* owner = schema_->FindClass(c.owner_class);
    const Attribute* a = owner->FindAttribute(c.attr);
    const Type* t = a->type;
    if (t->IsCollection()) t = t->elem();
    cluster_targets.insert(t->class_name());
  }
  for (const std::string& target : cluster_targets) {
    const Extent* e = FindExtent(target);
    RODIN_CHECK(e != nullptr, "cluster target extent missing");
    RODIN_CHECK(config_.FindHorizontal(target) == nullptr,
                "clustered class cannot be horizontally fragmented");
  }

  std::vector<std::vector<bool>> placed(extents_.size());
  for (size_t i = 0; i < extents_.size(); ++i) {
    placed[i].assign(extents_[i].extent->size(), false);
  }
  auto index_of = [&](const std::string& name) -> size_t {
    for (size_t i = 0; i < extents_.size(); ++i) {
      if (extents_[i].extent->name() == name) return i;
    }
    RODIN_CHECK(false, "extent not found");
    return 0;
  };

  // Recursively places the primary fragment of a record and the primary
  // fragments of its clustered children into `packer`.
  std::function<void(size_t, uint32_t, PagePacker&)> place_clustered =
      [&](size_t ext_idx, uint32_t slot, PagePacker& packer) {
        ExtentInfo& info = extents_[ext_idx];
        Extent* e = info.extent.get();
        if (placed[ext_idx][slot]) return;
        placed[ext_idx][slot] = true;
        e->page_of_[0][slot] = packer.Place(frag_bytes(info, 0));
        if (info.is_relation) return;
        for (const ClusterSpec& c : config_.clustering) {
          if (c.owner_class != e->name()) continue;
          const int field = FieldIndex(e->name(), c.attr);
          if (field < 0) continue;
          const Value& v = e->Record(slot)[field];
          std::vector<Oid> children;
          if (v.is_ref()) {
            children.push_back(v.AsRef());
          } else if (v.is_collection()) {
            for (const Value& ev : v.AsCollection().elems) {
              if (ev.is_ref()) children.push_back(ev.AsRef());
            }
          }
          for (Oid child : children) {
            const size_t child_idx = index_of(ExtentNameOf(child));
            place_clustered(child_idx, child.slot, packer);
          }
        }
      };

  // Primary (vfrag 0) streams: every extent that is not a cluster target
  // gets one stream per horizontal fragment; cluster targets ride along.
  for (size_t i = 0; i < extents_.size(); ++i) {
    ExtentInfo& info = extents_[i];
    Extent* e = info.extent.get();
    if (cluster_targets.count(e->name()) > 0) continue;
    for (uint16_t h = 0; h < e->num_hfrags_; ++h) {
      PagePacker packer(next_page_);
      for (uint32_t slot : e->slots_of_hfrag_[h]) {
        place_clustered(i, slot, packer);
      }
      next_page_ = packer.end_page();
    }
  }
  // Leftover cluster-target records (never referenced by an owner) get a
  // tail stream of their own.
  for (size_t i = 0; i < extents_.size(); ++i) {
    ExtentInfo& info = extents_[i];
    Extent* e = info.extent.get();
    PagePacker packer(next_page_);
    for (uint32_t s = 0; s < e->size(); ++s) {
      if (!placed[i][s]) {
        placed[i][s] = true;
        e->page_of_[0][s] = packer.Place(frag_bytes(info, 0));
      }
    }
    next_page_ = packer.end_page();
  }

  // Secondary vertical fragments: packed contiguously per (v, h).
  for (ExtentInfo& info : extents_) {
    Extent* e = info.extent.get();
    for (uint16_t v = 1; v < e->num_vfrags_; ++v) {
      for (uint16_t h = 0; h < e->num_hfrags_; ++h) {
        PagePacker packer(next_page_);
        for (uint32_t slot : e->slots_of_hfrag_[h]) {
          e->page_of_[v][slot] = packer.Place(frag_bytes(info, v));
        }
        next_page_ = packer.end_page();
      }
    }
  }

  // Scan page lists: distinct pages in first-touch order per (v, h).
  for (ExtentInfo& info : extents_) {
    Extent* e = info.extent.get();
    e->scan_pages_.assign(e->num_vfrags_, {});
    for (uint16_t v = 0; v < e->num_vfrags_; ++v) {
      e->scan_pages_[v].assign(e->num_hfrags_, {});
      for (uint16_t h = 0; h < e->num_hfrags_; ++h) {
        std::unordered_set<PageId> seen;
        for (uint32_t slot : e->slots_of_hfrag_[h]) {
          const PageId p = e->page_of_[v][slot];
          if (seen.insert(p).second) e->scan_pages_[v][h].push_back(p);
        }
      }
    }
  }
}

void Database::BuildIndexes() {
  for (const SelIndexSpec& spec : config_.sel_indexes) {
    const ExtentInfo* info = FindInfo(spec.extent_name);
    RODIN_CHECK(info != nullptr, "sel index on unknown extent");
    const int field = FieldIndex(spec.extent_name, spec.attr);
    RODIN_CHECK(field >= 0, "sel index on unknown attribute");
    std::vector<std::pair<Value, uint64_t>> entries;
    const Extent* e = info->extent.get();
    for (uint32_t s = 0; s < e->size(); ++s) {
      if (!e->alive(s)) continue;
      const Value& v = e->Record(s)[field];
      if (!v.is_null()) entries.emplace_back(v, s);
    }
    uint64_t key_bytes = 8;
    if (!entries.empty() && entries.front().first.is_string()) key_bytes = 24;
    auto index = std::make_unique<BTreeIndex>(
        spec.extent_name + "." + spec.attr, spec.attr);
    const uint64_t pages =
        index->Build(std::move(entries), key_bytes + 8, next_page_);
    next_page_ += pages;
    sel_indexes_.push_back(std::move(index));
    sel_index_extent_.push_back(spec.extent_name);
  }

  for (const PathIndexSpec& spec : config_.path_indexes) {
    const ClassDef* root = schema_->FindClass(spec.root_class);
    RODIN_CHECK(root != nullptr, "path index on unknown class");
    // Collect the class ids along the path.
    std::vector<uint32_t> class_ids = {root->id()};
    const ClassDef* cls = root;
    for (const std::string& attr : spec.path) {
      const Attribute* a = cls->FindAttribute(attr);
      RODIN_CHECK(a != nullptr, "path index attribute missing");
      const Type* t = a->type;
      if (t->IsCollection()) t = t->elem();
      cls = schema_->FindClass(t->class_name());
      RODIN_CHECK(cls != nullptr, "path index class missing");
      class_ids.push_back(cls->id());
    }
    std::vector<std::vector<Oid>> entries =
        ExpandPathEntries(spec, root->id());
    auto index = std::make_unique<PathIndex>(spec.root_class, spec.path,
                                             std::move(class_ids));
    const uint64_t pages = index->Build(std::move(entries), next_page_);
    next_page_ += pages;
    path_indexes_.push_back(std::move(index));
  }
}

std::vector<std::vector<Oid>> Database::ExpandPathEntries(
    const PathIndexSpec& spec, uint32_t root_id) const {
  std::vector<std::vector<Oid>> entries;
  const Extent* root_extent = FindExtent(spec.root_class);
  RODIN_CHECK(root_extent != nullptr, "path index on unknown extent");
  std::function<void(Oid, size_t, std::vector<Oid>&)> expand =
      [&](Oid oid, size_t depth, std::vector<Oid>& cur) {
        cur.push_back(oid);
        if (depth == spec.path.size()) {
          entries.push_back(cur);
          cur.pop_back();
          return;
        }
        const Value v = GetRaw(oid, spec.path[depth]);
        if (v.is_ref()) {
          expand(v.AsRef(), depth + 1, cur);
        } else if (v.is_collection()) {
          for (const Value& ev : v.AsCollection().elems) {
            if (ev.is_ref()) expand(ev.AsRef(), depth + 1, cur);
          }
        }
        cur.pop_back();
      };
  for (uint32_t s = 0; s < root_extent->size(); ++s) {
    if (!root_extent->alive(s)) continue;
    std::vector<Oid> cur;
    expand(Oid{root_id, s}, 0, cur);
  }
  return entries;
}

void Database::Finalize(PhysicalConfig config) {
  RODIN_CHECK(!finalized_, "Finalize called twice");
  const std::vector<std::string> errors = config.Validate(*schema_);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "PhysicalConfig error: %s\n", e.c_str());
  }
  RODIN_CHECK(errors.empty(), "invalid physical configuration");
  config_ = std::move(config);
  pool_ = std::make_unique<BufferPool>(config_.buffer_pages);
  LayoutExtents();
  BuildIndexes();
  finalized_ = true;
}

void Database::ChargeRecordAccess(Oid oid, PageCharger* charger) const {
  RODIN_CHECK(finalized_, "charged access before Finalize");
  charger->Charge(InfoOf(oid)->extent->PageOf(oid.slot, 0));
}

Database::ScanSource Database::ResolveScan(const EntityRef& ref) const {
  RODIN_CHECK(finalized_, "scan before Finalize");
  const ExtentInfo* info = FindInfo(ref.extent);
  RODIN_CHECK(info != nullptr, "scan of unknown extent");
  const Extent* e = info->extent.get();
  RODIN_CHECK(ref.vfrag < e->num_vfrags() && ref.hfrag < e->num_hfrags(),
              "scan fragment out of range");
  ScanSource src;
  src.extent = e;
  src.base_class = info->is_relation ? (info->id | kRelationOidBit) : info->id;
  src.vfrag = ref.vfrag;
  src.slots = &e->SlotsOfHfrag(ref.hfrag);
  return src;
}

uint64_t Database::EntityPages(const EntityRef& ref) const {
  const Extent* e = FindExtent(ref.extent);
  RODIN_CHECK(e != nullptr && e->finalized(), "entity pages of unknown extent");
  return e->ScanPages(ref.vfrag, ref.hfrag).size();
}

uint64_t Database::EntityInstances(const EntityRef& ref) const {
  const Extent* e = FindExtent(ref.extent);
  RODIN_CHECK(e != nullptr && e->finalized(), "entity size of unknown extent");
  return e->SlotsOfHfrag(ref.hfrag).size();
}

const BTreeIndex* Database::FindSelIndex(const std::string& extent_name,
                                         const std::string& attr) const {
  for (size_t i = 0; i < sel_indexes_.size(); ++i) {
    if (sel_index_extent_[i] == extent_name &&
        sel_indexes_[i]->attr() == attr) {
      return sel_indexes_[i].get();
    }
  }
  return nullptr;
}

const PathIndex* Database::FindPathIndex(
    const std::string& root_class, const std::vector<std::string>& path) const {
  for (const auto& idx : path_indexes_) {
    if (idx->root_class() == root_class && idx->path() == path) {
      return idx.get();
    }
  }
  return nullptr;
}

Oid Database::PayloadToOid(const std::string& extent_name,
                           uint64_t payload) const {
  const ExtentInfo* info = FindInfo(extent_name);
  RODIN_CHECK(info != nullptr, "payload for unknown extent");
  const uint32_t base =
      info->is_relation ? (info->id | kRelationOidBit) : info->id;
  return Oid{base, static_cast<uint32_t>(payload)};
}

}  // namespace rodin
