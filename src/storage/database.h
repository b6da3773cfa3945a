#ifndef RODIN_STORAGE_DATABASE_H_
#define RODIN_STORAGE_DATABASE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/check.h"
#include "common/status.h"
#include "storage/btree_index.h"
#include "storage/buffer_pool.h"
#include "storage/extent.h"
#include "storage/path_index.h"
#include "storage/physical_schema.h"
#include "storage/value.h"
#include "txn/mutation.h"

namespace rodin {

/// Relation tuples are addressed with pseudo-Oids whose class_id has the
/// high bit set (relations have values, not objects, but a uniform address
/// simplifies the executor and index payloads).
constexpr uint32_t kRelationOidBit = 0x80000000u;

inline bool IsRelationOid(Oid oid) {
  return (oid.class_id & kRelationOidBit) != 0;
}

/// Identifies an atomic entity of the physical schema (paper §3): a whole
/// extent, or one (vertical, horizontal) fragment of a decomposed one.
struct EntityRef {
  std::string extent;  // class or relation name
  uint16_t vfrag = 0;
  uint16_t hfrag = 0;

  friend bool operator==(const EntityRef& a, const EntityRef& b) {
    return a.extent == b.extent && a.vfrag == b.vfrag && a.hfrag == b.hfrag;
  }
  std::string ToString() const;
};

/// The object store: a populated instance of a conceptual schema laid out on
/// simulated pages according to a PhysicalConfig. Population happens first
/// (NewObject/Set/InsertTuple), then Finalize() computes the page layout and
/// builds indices; afterwards the store is read-only and all charged reads
/// go through the buffer pool.
class Database {
 public:
  using MethodFn = std::function<Value(const Database&, Oid)>;

  /// `schema` must outlive the database.
  explicit Database(const Schema* schema);

  /// Unregisters this database's TxnManager (see txn/txn_manager.h).
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const Schema& schema() const { return *schema_; }
  BufferPool& buffer_pool() { return *pool_; }
  const BufferPool& buffer_pool() const { return *pool_; }
  bool finalized() const { return finalized_; }
  const PhysicalConfig& config() const { return config_; }

  // --- Population (before Finalize) ---------------------------------------

  /// Creates an object of `class_name` with all attributes null.
  Oid NewObject(const std::string& class_name);

  /// Sets a stored attribute of an object.
  void Set(Oid oid, const std::string& attr, Value v);

  /// Inserts a tuple into a relation; returns its pseudo-Oid.
  Oid InsertTuple(const std::string& relation, std::vector<Value> fields);

  /// Registers the body of a computed attribute (method).
  void RegisterMethod(const std::string& class_name, const std::string& attr,
                      MethodFn fn);

  // --- Layout --------------------------------------------------------------

  /// Validates `config`, assigns every record to a page (honouring
  /// clustering and fragmentation), and builds the declared indices.
  /// Aborts on an invalid configuration.
  void Finalize(PhysicalConfig config);

  /// Allocates `n` fresh page ids (used for temporaries). Thread-safe, so
  /// concurrent sessions can build temps against one database; within one
  /// query the batched executor only allocates from its coordinator thread
  /// (allocation order is part of the deterministic accounting).
  PageId AllocatePages(uint64_t n);

  // --- Write path (post-Finalize) ------------------------------------------

  /// Validates and applies a mutation batch all-or-nothing: either every op
  /// lands (records, page layout, selection and path indices all updated)
  /// and `*result` reports what changed, or the database is untouched and
  /// the returned status says why (kInvalidArgument: unknown extent or
  /// attribute, assignment to a computed or horizontal-fragmentation
  /// attribute, dangling ref, or a delete that would leave a live record
  /// referencing a dead oid). Refs may point at oids created by earlier (or
  /// later) inserts of the same batch. NOT thread-safe against concurrent
  /// readers — callers go through TxnManager, whose single-writer commit
  /// gate drains reads first.
  Status Apply(const MutationBatch& batch, MutationResult* result);

  // --- Uncharged access (tests, data generators, stats derivation) --------

  /// Raw field read without cost accounting.
  Value GetRaw(Oid oid, const std::string& attr) const;
  const std::vector<Value>& RecordOf(Oid oid) const;

  const Extent* FindExtent(const std::string& name) const;
  Extent* FindExtentMutable(const std::string& name);
  bool IsRelation(const std::string& name) const;

  /// Extent of the class/relation an oid belongs to.
  const Extent* ExtentOf(Oid oid) const;
  /// Name of the class/relation an oid belongs to.
  const std::string& ExtentNameOf(Oid oid) const;

  /// Storage field position of `attr` in `extent_name` records; -1 if the
  /// attribute is computed or absent.
  int FieldIndex(const std::string& extent_name, const std::string& attr) const;

  // --- Resolved attribute access (executor hot path) -----------------------

  /// One attribute name resolved against one extent, so that reading it
  /// needs no name lookups: a stored field (charged on the record's page in
  /// `vfrag`), a computed attribute (its method and declared cost), or
  /// absent. Class ids, storage positions and vertical fragments never
  /// change after Finalize, so a binding stays valid across commits.
  struct FieldBinding {
    enum class Kind : uint8_t { kAbsent, kStored, kComputed };
    Kind kind = Kind::kAbsent;
    const Extent* extent = nullptr;
    int field = -1;                    // kStored: position in the record
    uint16_t vfrag = 0;                // kStored: fragment holding `field`
    double method_cost = 0;            // kComputed: declared cost per call
    const MethodFn* method = nullptr;  // kComputed: null if none registered
  };

  /// Dense index of the extent `oid` belongs to — classes by id, then
  /// relations by id — in constant time. Aborts on an oid of no extent.
  size_t ExtentIndexOf(Oid oid) const {
    const uint32_t id = oid.class_id & ~kRelationOidBit;
    const bool rel = IsRelationOid(oid);
    const size_t index = rel ? num_classes_ + id : id;
    RODIN_CHECK(index < (rel ? extents_.size() : num_classes_),
                "oid does not match any extent");
    return index;
  }
  size_t num_extents() const { return extents_.size(); }

  /// Resolves `attr` on the extent at `extent_index` (see ExtentIndexOf).
  /// Only after Finalize, which fixes the vertical fragments.
  FieldBinding BindField(size_t extent_index, const std::string& attr) const;

  // --- Charged access (executor) -------------------------------------------
  //
  // Accessors charge an arbitrary PageCharger, not the database's own pool:
  // the batched executor's worker morsels each record into their own
  // ChargeLog and the logs are replayed into the pool later, in canonical
  // order, so these must be safe to call from many threads at once as long
  // as each thread brings its own charger. Field reads are charged through
  // FieldBinding (see eval_core's navigation).

  /// Charges the page holding record `oid`'s primary (vfrag 0) fragment:
  /// the access an object dereference or a method's receiver read costs.
  void ChargeRecordAccess(Oid oid, PageCharger* charger) const;

  /// Resolved scan coordinates of an atomic entity: the slot list (in scan
  /// order) plus everything needed to charge and address each record. Lets
  /// the batched executor split one scan into slot-range morsels without
  /// re-resolving the extent per record.
  struct ScanSource {
    const Extent* extent = nullptr;
    uint32_t base_class = 0;  // class id (relation bit applied)
    uint16_t vfrag = 0;
    const std::vector<uint32_t>* slots = nullptr;  // scan order
    size_t size() const { return slots->size(); }
  };
  ScanSource ResolveScan(const EntityRef& e) const;

  /// Pages a full scan of `e` touches (for cost estimation).
  uint64_t EntityPages(const EntityRef& e) const;
  /// Records in `e`.
  uint64_t EntityInstances(const EntityRef& e) const;

  // --- Indices ---------------------------------------------------------------

  const BTreeIndex* FindSelIndex(const std::string& extent_name,
                                 const std::string& attr) const;
  const PathIndex* FindPathIndex(const std::string& root_class,
                                 const std::vector<std::string>& path) const;
  const std::vector<std::unique_ptr<PathIndex>>& path_indexes() const {
    return path_indexes_;
  }

  /// Converts an index payload back into an Oid for `extent_name`.
  Oid PayloadToOid(const std::string& extent_name, uint64_t payload) const;

 private:
  struct ExtentInfo {
    std::unique_ptr<Extent> extent;
    bool is_relation = false;
    uint32_t id = 0;           // class id or relation id
    uint64_t record_bytes = 8;  // derived or overridden at Finalize
    const ClassDef* cls = nullptr;  // null for relations
  };

  ExtentInfo* FindInfo(const std::string& name);
  const ExtentInfo* FindInfo(const std::string& name) const;
  const ExtentInfo* InfoOf(Oid oid) const;
  /// Like InfoOf but returns null instead of aborting (write-path
  /// validation of untrusted oids).
  const ExtentInfo* InfoOfOrNull(Oid oid) const;
  /// The body of computed attribute `attr` on `cls`: the nearest one
  /// registered up the inheritance chain, or null.
  const MethodFn* FindMethod(const ClassDef* cls, const std::string& attr) const;

  uint64_t DeriveRecordBytes(const ExtentInfo& info) const;
  void LayoutExtents();
  void BuildIndexes();
  /// Expands every instantiation of a path-index spec over the current live
  /// records (shared by the initial build and write-path rebuilds).
  std::vector<std::vector<Oid>> ExpandPathEntries(const PathIndexSpec& spec,
                                                  uint32_t root_id) const;

  const Schema* schema_;
  PhysicalConfig config_;
  std::unique_ptr<BufferPool> pool_;
  bool finalized_ = false;
  PageId next_page_ = 0;
  std::mutex alloc_mu_;  // guards next_page_ after Finalize

  /// Classes in id order, then relations in id order (see ExtentIndexOf).
  std::vector<ExtentInfo> extents_;
  size_t num_classes_ = 0;
  std::map<std::pair<std::string, std::string>, MethodFn> methods_;
  std::vector<std::unique_ptr<BTreeIndex>> sel_indexes_;
  std::vector<std::string> sel_index_extent_;  // parallel to sel_indexes_
  std::vector<std::unique_ptr<PathIndex>> path_indexes_;
};

}  // namespace rodin

#endif  // RODIN_STORAGE_DATABASE_H_
