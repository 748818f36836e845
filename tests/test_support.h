// Shared test fixtures: a single-tenant Firestore backend over an in-process
// Spanner database.

#ifndef FIRESTORE_TESTS_TEST_SUPPORT_H_
#define FIRESTORE_TESTS_TEST_SUPPORT_H_

#include <memory>
#include <string>

#include "backend/committer.h"
#include "backend/read_service.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "firestore/index/backfill.h"
#include "firestore/index/catalog.h"
#include "firestore/index/layout.h"
#include "firestore/model/document.h"
#include "firestore/query/query.h"
#include "spanner/database.h"

namespace firestore::testing {

inline model::ResourcePath Path(std::string_view s) {
  auto p = model::ResourcePath::Parse(s);
  FS_CHECK(p.ok());
  return std::move(p).value();
}

inline model::FieldPath Field(std::string_view s) {
  auto f = model::FieldPath::Parse(s);
  FS_CHECK(f.ok());
  return std::move(f).value();
}

// Current value of a registry counter. The registry is process-global, so
// tests assert the difference across an action, not an absolute value.
inline int64_t CounterValue(std::string_view name,
                            std::string_view label = "") {
  return MetricRegistry::Global().GetCounter(name, label).value();
}

// One tenant database wired to a fresh Spanner instance.
class TestTenant {
 public:
  explicit TestTenant(std::string database_id = "projects/p/databases/d")
      : database_id_(std::move(database_id)),
        clock_(1'000'000'000),
        spanner_(&clock_),
        committer_(&spanner_, &clock_),
        reader_(&spanner_),
        backfill_(&spanner_) {
    FS_CHECK_OK(spanner_.CreateTable(index::kEntitiesTable));
    FS_CHECK_OK(spanner_.CreateTable(index::kIndexEntriesTable));
  }

  // Writes a document (set semantics) and returns its commit timestamp.
  spanner::Timestamp Put(std::string_view path, model::Map fields) {
    auto result = committer_.Commit(
        database_id_, catalog_,
        {backend::Mutation::Set(Path(path), std::move(fields))});
    FS_CHECK(result.ok());
    return result->commit_ts;
  }

  spanner::Timestamp Delete(std::string_view path) {
    auto result = committer_.Commit(database_id_, catalog_,
                                    {backend::Mutation::Delete(Path(path))});
    FS_CHECK(result.ok());
    return result->commit_ts;
  }

  StatusOr<backend::RunQueryResult> Run(const query::Query& q,
                                        spanner::Timestamp ts = 0) {
    return reader_.RunQuery(database_id_, catalog_, q, ts);
  }

  const std::string& id() const { return database_id_; }
  ManualClock& clock() { return clock_; }
  spanner::Database& spanner() { return spanner_; }
  index::IndexCatalog& catalog() { return catalog_; }
  backend::Committer& committer() { return committer_; }
  backend::ReadService& reader() { return reader_; }
  index::IndexBackfillService& backfill() { return backfill_; }

  // Counts live rows in a table (optionally restricted to a key prefix).
  int64_t CountRows(const std::string& table,
                    const std::string& prefix = "") {
    auto rows = spanner_.SnapshotScan(table, prefix,
                                      prefix.empty()
                                          ? ""
                                          : PrefixSuccessor(prefix),
                                      spanner_.StrongReadTimestamp());
    FS_CHECK(rows.ok());
    return static_cast<int64_t>(rows->size());
  }

 private:
  std::string database_id_;
  ManualClock clock_;
  spanner::Database spanner_;
  index::IndexCatalog catalog_;
  backend::Committer committer_;
  backend::ReadService reader_;
  index::IndexBackfillService backfill_;
};

}  // namespace firestore::testing

#endif  // FIRESTORE_TESTS_TEST_SUPPORT_H_
