// Database / extent layout tests: page assignment, clustering, vertical and
// horizontal fragmentation, charged access, methods.

#include <gtest/gtest.h>

#include <set>

#include "catalog/schema.h"
#include "storage/database.h"
#include "support/db_access.h"

namespace rodin {
namespace {

// Builds a two-class schema: Owner { k: int, child: Child }, Child { v: int,
// w: string }.
class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TypePool& t = schema_.types();
    ClassDef* child = schema_.AddClass("Child");
    schema_.AddAttribute(child, {"v", t.Int(), false, 0, "", ""});
    schema_.AddAttribute(child, {"w", t.String(), false, 0, "", ""});
    ClassDef* owner = schema_.AddClass("Owner");
    schema_.AddAttribute(owner, {"k", t.Int(), false, 0, "", ""});
    schema_.AddAttribute(owner, {"child", t.Object("Child"), false, 0, "", ""});
    schema_.AddRelation("R", {{"a", t.Int()}, {"b", t.Int()}});
  }

  // Populates n owners each with one child; returns the db.
  std::unique_ptr<Database> Populate(uint32_t n, PhysicalConfig config) {
    auto db = std::make_unique<Database>(&schema_);
    for (uint32_t i = 0; i < n; ++i) {
      Oid c = db->NewObject("Child");
      db->Set(c, "v", Value::Int(i));
      db->Set(c, "w", Value::Str("w" + std::to_string(i)));
      Oid o = db->NewObject("Owner");
      db->Set(o, "k", Value::Int(i));
      db->Set(o, "child", Value::Ref(c));
    }
    db->Finalize(std::move(config));
    return db;
  }

  Schema schema_;
};

TEST_F(StorageTest, RecordsRoundTrip) {
  auto db = Populate(10, PhysicalConfig{});
  const ClassDef* owner = schema_.FindClass("Owner");
  Oid o{owner->id(), 3};
  EXPECT_EQ(db->GetRaw(o, "k").AsInt(), 3);
  const Oid child = db->GetRaw(o, "child").AsRef();
  EXPECT_EQ(db->GetRaw(child, "v").AsInt(), 3);
  EXPECT_EQ(db->GetRaw(child, "w").AsString(), "w3");
}

TEST_F(StorageTest, LayoutAssignsDistinctPageRuns) {
  auto db = Populate(500, PhysicalConfig{});
  const Extent* owner = db->FindExtent("Owner");
  const Extent* child = db->FindExtent("Child");
  ASSERT_TRUE(owner->finalized());
  // Without clustering, owners and children occupy disjoint pages.
  std::set<PageId> owner_pages(owner->ScanPages(0, 0).begin(),
                               owner->ScanPages(0, 0).end());
  for (PageId p : child->ScanPages(0, 0)) {
    EXPECT_EQ(owner_pages.count(p), 0u);
  }
  EXPECT_GT(owner_pages.size(), 1u);
}

TEST_F(StorageTest, ClusteringCoLocatesChildren) {
  PhysicalConfig config;
  config.clustering.push_back(ClusterSpec{"Owner", "child"});
  auto db = Populate(500, config);
  const ClassDef* owner_cls = schema_.FindClass("Owner");
  const Extent* owner = db->FindExtent("Owner");
  const Extent* child = db->FindExtent("Child");
  // Every child sits on its owner's page.
  uint32_t colocated = 0;
  for (uint32_t s = 0; s < owner->size(); ++s) {
    const Oid c = db->GetRaw(Oid{owner_cls->id(), s}, "child").AsRef();
    if (owner->PageOf(s, 0) == child->PageOf(c.slot, 0)) ++colocated;
  }
  EXPECT_EQ(colocated, owner->size());
  // The price: a scan of Child touches the interleaved owner pages.
  EXPECT_GE(child->ScanPages(0, 0).size(), owner->ScanPages(0, 0).size() / 2);
}

TEST_F(StorageTest, VerticalFragmentsShrinkPrimaryScan) {
  PhysicalConfig plain;
  auto db1 = Populate(2000, plain);
  const uint64_t full_pages = db1->FindExtent("Child")->ScanPages(0, 0).size();

  PhysicalConfig split;
  split.vertical.push_back(VerticalSpec{"Child", {{"v"}, {"w"}}});
  auto db2 = Populate(2000, split);
  const Extent* child = db2->FindExtent("Child");
  ASSERT_EQ(child->num_vfrags(), 2);
  // Each fragment scans fewer pages than the unfragmented extent.
  EXPECT_LT(child->ScanPages(0, 0).size(), full_pages);
  EXPECT_LT(child->ScanPages(1, 0).size(), full_pages);
  // Field-to-fragment mapping.
  EXPECT_EQ(child->VfragOfField(0), 0);
  EXPECT_EQ(child->VfragOfField(1), 1);
}

TEST_F(StorageTest, HorizontalFragmentsPartitionSlots) {
  PhysicalConfig config;
  config.horizontal.push_back(HorizontalSpec{"Owner", "k", 4});
  auto db = Populate(1000, config);
  const Extent* owner = db->FindExtent("Owner");
  ASSERT_EQ(owner->num_hfrags(), 4);
  size_t total = 0;
  for (uint16_t h = 0; h < 4; ++h) {
    total += owner->SlotsOfHfrag(h).size();
    EXPECT_GT(owner->SlotsOfHfrag(h).size(), 100u);  // roughly uniform
  }
  EXPECT_EQ(total, owner->size());
  // A record's fragment matches its slot list.
  for (uint32_t slot : owner->SlotsOfHfrag(2)) {
    EXPECT_EQ(owner->HfragOf(slot), 2);
  }
}

TEST_F(StorageTest, ChargedAccessFetchesPages) {
  auto db = Populate(100, PhysicalConfig{});
  const ClassDef* owner = schema_.FindClass("Owner");
  const auto before = db->buffer_pool().stats().fetches;
  ChargeRecordAccess(db.get(), Oid{owner->id(), 5});
  EXPECT_EQ(db->buffer_pool().stats().fetches, before + 1);
}

TEST_F(StorageTest, BindFieldResolvesSlotAndFragment) {
  auto db = Populate(100, PhysicalConfig{});
  const Oid oid{schema_.FindClass("Owner")->id(), 5};
  const size_t index = db->ExtentIndexOf(oid);
  const Database::FieldBinding k = db->BindField(index, "k");
  EXPECT_EQ(k.kind, Database::FieldBinding::Kind::kStored);
  EXPECT_EQ(k.extent, db->FindExtent("Owner"));
  EXPECT_EQ(k.field, db->FieldIndex("Owner", "k"));
  EXPECT_EQ(k.vfrag, k.extent->VfragOfField(k.field));
  EXPECT_EQ(k.extent->Record(oid.slot)[k.field], db->GetRaw(oid, "k"));
  EXPECT_EQ(db->BindField(index, "missing").kind,
            Database::FieldBinding::Kind::kAbsent);
  // Relations follow the classes in the extent index.
  const Database::FieldBinding a =
      db->BindField(schema_.classes().size(), "a");
  EXPECT_EQ(a.kind, Database::FieldBinding::Kind::kStored);
  EXPECT_EQ(a.extent, db->FindExtent("R"));
}

TEST_F(StorageTest, ScanEntityChargesEveryPageOnce) {
  auto db = Populate(1000, PhysicalConfig{});
  db->buffer_pool().Clear();
  size_t rows = 0;
  ScanEntity(db.get(), EntityRef{"Owner", 0, 0},
             [&](Oid, const std::vector<Value>&) { ++rows; });
  EXPECT_EQ(rows, 1000u);
  EXPECT_EQ(db->buffer_pool().stats().misses,
            db->FindExtent("Owner")->ScanPages(0, 0).size());
}

TEST_F(StorageTest, EntityPagesAndInstances) {
  auto db = Populate(100, PhysicalConfig{});
  const EntityRef ref{"Owner", 0, 0};
  EXPECT_EQ(db->EntityInstances(ref), 100u);
  EXPECT_EQ(db->EntityPages(ref),
            db->FindExtent("Owner")->ScanPages(0, 0).size());
}

TEST_F(StorageTest, RelationsUsePseudoOids) {
  auto db = std::make_unique<Database>(&schema_);
  const Oid t0 = db->InsertTuple("R", {Value::Int(1), Value::Int(2)});
  EXPECT_TRUE(IsRelationOid(t0));
  db->Finalize(PhysicalConfig{});
  EXPECT_EQ(db->GetRaw(t0, "a").AsInt(), 1);
  EXPECT_EQ(db->GetRaw(t0, "b").AsInt(), 2);
  EXPECT_EQ(db->ExtentNameOf(t0), "R");
}

TEST_F(StorageTest, MethodsRegisterAndInvoke) {
  TypePool& t = schema_.types();
  ClassDef* owner = schema_.FindClass("Owner");
  schema_.AddAttribute(owner, {"doubled", t.Int(), true, 1.5, "", ""});
  auto db = std::make_unique<Database>(&schema_);
  Oid o = db->NewObject("Owner");
  db->Set(o, "k", Value::Int(21));
  db->RegisterMethod("Owner", "doubled", [](const Database& d, Oid oid) {
    return Value::Int(d.GetRaw(oid, "k").AsInt() * 2);
  });
  db->Finalize(PhysicalConfig{});
  const Database::FieldBinding doubled =
      db->BindField(db->ExtentIndexOf(o), "doubled");
  EXPECT_EQ(doubled.kind, Database::FieldBinding::Kind::kComputed);
  ASSERT_NE(doubled.method, nullptr);
  EXPECT_EQ(doubled.method_cost, 1.5);
  EXPECT_EQ((*doubled.method)(*db, o).AsInt(), 42);
  EXPECT_EQ(db->BindField(db->ExtentIndexOf(o), "k").kind,
            Database::FieldBinding::Kind::kStored);
  EXPECT_EQ(InvokeMethod(*db, o, "doubled").AsInt(), 42);
}

TEST_F(StorageTest, RecordBytesOverrideInflatesPages) {
  PhysicalConfig small;
  auto db1 = Populate(200, small);
  PhysicalConfig big;
  big.record_bytes_override.push_back({"Owner", 2048});
  auto db2 = Populate(200, big);
  EXPECT_GT(db2->FindExtent("Owner")->ScanPages(0, 0).size(),
            db1->FindExtent("Owner")->ScanPages(0, 0).size());
}

TEST_F(StorageTest, InvalidConfigRejected) {
  PhysicalConfig bad;
  bad.vertical.push_back(VerticalSpec{"Child", {{"v"}}});  // w uncovered
  EXPECT_FALSE(bad.Validate(schema_).empty());

  PhysicalConfig bad2;
  bad2.sel_indexes.push_back(SelIndexSpec{"Owner", "child"});  // not atomic
  EXPECT_FALSE(bad2.Validate(schema_).empty());

  PhysicalConfig bad3;
  bad3.path_indexes.push_back(PathIndexSpec{"Owner", {"k"}});  // atomic path
  EXPECT_FALSE(bad3.Validate(schema_).empty());

  PhysicalConfig good;
  good.clustering.push_back(ClusterSpec{"Owner", "child"});
  good.sel_indexes.push_back(SelIndexSpec{"Owner", "k"});
  good.path_indexes.push_back(PathIndexSpec{"Owner", {"child"}});
  EXPECT_TRUE(good.Validate(schema_).empty());
}

TEST_F(StorageTest, InsertAfterFinalizeAborts) {
  auto db = Populate(10, PhysicalConfig{});
  EXPECT_DEATH(db->NewObject("Owner"), "after Finalize");
}

}  // namespace
}  // namespace rodin
