// Read-access abstraction for query execution. Queries run either inside a
// Firestore transaction (Spanner reads take read locks) or lock-free at a
// snapshot timestamp (paper §IV-D3); the executor is agnostic.

#ifndef FIRESTORE_QUERY_ROW_READER_H_
#define FIRESTORE_QUERY_ROW_READER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "spanner/database.h"

namespace firestore::query {

class RowReader {
 public:
  virtual ~RowReader() = default;

  // `version` (optional) receives the commit timestamp of the version read.
  virtual StatusOr<spanner::RowValue> Read(
      const std::string& table, const spanner::Key& key,
      spanner::Timestamp* version = nullptr) = 0;

  // Up to `max_rows` rows with key in [start, limit), in key order.
  virtual StatusOr<std::vector<spanner::ScanRow>> Scan(
      const std::string& table, const spanner::Key& start,
      const spanner::Key& limit, int64_t max_rows) = 0;
};

// Lock-free reads at a fixed timestamp.
class SnapshotRowReader : public RowReader {
 public:
  SnapshotRowReader(const spanner::Database* db, spanner::Timestamp ts)
      : db_(db), ts_(ts) {}

  StatusOr<spanner::RowValue> Read(
      const std::string& table, const spanner::Key& key,
      spanner::Timestamp* version = nullptr) override {
    return db_->SnapshotRead(table, key, ts_, version);
  }

  StatusOr<std::vector<spanner::ScanRow>> Scan(const std::string& table,
                                               const spanner::Key& start,
                                               const spanner::Key& limit,
                                               int64_t max_rows) override {
    return db_->SnapshotScan(table, start, limit, ts_, max_rows);
  }

 private:
  const spanner::Database* db_;
  spanner::Timestamp ts_;
};

// Locking reads within a read-write transaction.
class TransactionRowReader : public RowReader {
 public:
  explicit TransactionRowReader(spanner::ReadWriteTransaction* txn)
      : txn_(txn) {}

  StatusOr<spanner::RowValue> Read(
      const std::string& table, const spanner::Key& key,
      spanner::Timestamp* version = nullptr) override {
    return txn_->Read(table, key, spanner::LockMode::kShared, version);
  }

  StatusOr<std::vector<spanner::ScanRow>> Scan(const std::string& table,
                                               const spanner::Key& start,
                                               const spanner::Key& limit,
                                               int64_t max_rows) override {
    return txn_->Scan(table, start, limit, max_rows);
  }

 private:
  spanner::ReadWriteTransaction* txn_;
};

// Feeds `visit` every row of `table` under `prefix`, in key order, read
// through `reader` in pages of spanner::kBatchRows. An error from `visit`
// stops the walk and is returned.
inline Status ForEachRow(
    RowReader& reader, const std::string& table, const spanner::Key& prefix,
    const std::function<Status(const spanner::ScanRow&)>& visit) {
  const spanner::Key limit = PrefixSuccessor(prefix);
  spanner::Key start = prefix;
  while (true) {
    ASSIGN_OR_RETURN(std::vector<spanner::ScanRow> rows,
                     reader.Scan(table, start, limit, spanner::kBatchRows));
    if (rows.empty()) return Status::Ok();
    for (const spanner::ScanRow& row : rows) RETURN_IF_ERROR(visit(row));
    start = KeySuccessor(rows.back().key);
  }
}

}  // namespace firestore::query

#endif  // FIRESTORE_QUERY_ROW_READER_H_
