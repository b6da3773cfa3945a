// Database accessors only the tests need: the reference evaluator's
// whole-extent scan and record-access charge, both straight into the
// database's own buffer pool, and by-name method invocation. The engine
// does none of these: it scans through Database::ResolveScan, binds
// attributes with Database::BindField and charges per-morsel ChargeLogs
// that it replays into the pool in canonical order.

#ifndef RODIN_TESTS_SUPPORT_DB_ACCESS_H_
#define RODIN_TESTS_SUPPORT_DB_ACCESS_H_

#include <functional>
#include <string>
#include <vector>

#include "storage/database.h"

namespace rodin {

/// Sequentially scans atomic entity `e`, invoking `fn(oid, record)` for
/// every record; each record's page is fetched from the pool in scan
/// order.
void ScanEntity(Database* db, const EntityRef& e,
                const std::function<void(Oid, const std::vector<Value>&)>& fn);

/// Invokes computed attribute `attr` of `oid` (the nearest registered body
/// up the inheritance chain). Charges nothing. Only after Finalize.
Value InvokeMethod(const Database& db, Oid oid, const std::string& attr);

/// Charges the page of `oid`'s primary fragment to the database's pool.
void ChargeRecordAccess(Database* db, Oid oid);

}  // namespace rodin

#endif  // RODIN_TESTS_SUPPORT_DB_ACCESS_H_
