#include "support/db_access.h"

#include "common/check.h"

namespace rodin {

void ScanEntity(Database* db, const EntityRef& e,
                const std::function<void(Oid, const std::vector<Value>&)>& fn) {
  const Database::ScanSource src = db->ResolveScan(e);
  for (uint32_t slot : *src.slots) {
    db->buffer_pool().Fetch(src.extent->PageOf(slot, src.vfrag));
    fn(Oid{src.base_class, slot}, src.extent->Record(slot));
  }
}

Value InvokeMethod(const Database& db, Oid oid, const std::string& attr) {
  const Database::FieldBinding b = db.BindField(db.ExtentIndexOf(oid), attr);
  RODIN_CHECK(b.kind == Database::FieldBinding::Kind::kComputed &&
                  b.method != nullptr,
              "no method registered for attribute");
  return (*b.method)(db, oid);
}

void ChargeRecordAccess(Database* db, Oid oid) {
  db->ChargeRecordAccess(oid, &db->buffer_pool());
}

}  // namespace rodin
