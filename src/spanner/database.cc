#include "spanner/database.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace firestore::spanner {

namespace {
constexpr char kLockSeparator = '\x1f';
}  // namespace

// ---------------------------------------------------------------------------
// ReadWriteTransaction

ReadWriteTransaction::~ReadWriteTransaction() {
  if (!finished_) Abort();
}

std::string ReadWriteTransaction::LockKey(const std::string& table,
                                          const Key& key) const {
  std::string result;
  result.reserve(table.size() + 1 + key.size());
  result.append(table);
  result.push_back(kLockSeparator);
  result.append(key);
  return result;
}

StatusOr<RowValue> ReadWriteTransaction::Read(const std::string& table,
                                              const Key& key, LockMode mode,
                                              Timestamp* version) {
  if (finished_) return FailedPreconditionError("transaction finished");
  if (version != nullptr) *version = 0;
  RETURN_IF_ERROR(FS_FAULT_POINT("spanner.txn.read"));
  RETURN_IF_ERROR(db_->lock_manager_.Acquire(id_, LockKey(table, key), mode,
                                             db_->lock_timeout_ms()));
  // Read-your-writes.
  auto tit = writes_.find(table);
  if (tit != writes_.end()) {
    auto wit = tit->second.find(key);
    if (wit != tit->second.end()) return wit->second;
  }
  ReaderMutexLock data_lock(&db_->data_mu_);
  auto table_it = db_->tables_.find(table);
  if (table_it == db_->tables_.end()) {
    return NotFoundError("no such table: " + table);
  }
  return table_it->second->ReadAt(key, kMaxTimestamp, version);
}

StatusOr<std::vector<ScanRow>> ReadWriteTransaction::Scan(
    const std::string& table, const Key& start, const Key& limit,
    int64_t max_rows) {
  if (finished_) return FailedPreconditionError("transaction finished");
  RETURN_IF_ERROR(FS_FAULT_POINT("spanner.txn.scan"));
  // This transaction's buffered writes within [start, limit).
  std::map<Key, RowValue>::const_iterator first{}, last{};
  if (auto tit = writes_.find(table); tit != writes_.end()) {
    first = tit->second.lower_bound(start);
    last = limit.empty() ? tit->second.end() : tit->second.lower_bound(limit);
  }
  // Each buffered delete may hide one stored row, so fetch that many more:
  // a page must not come back short (or empty) while later rows exist.
  int64_t fetch = max_rows;
  if (max_rows > 0) {
    fetch += std::count_if(first, last,
                           [](const auto& w) { return !w.second.has_value(); });
  }
  std::vector<ScanRow> rows;
  {
    ReaderMutexLock data_lock(&db_->data_mu_);
    ASSIGN_OR_RETURN(rows, db_->ScanLocked(table, start, limit,
                                           kMaxTimestamp, fetch));
  }
  for (auto it = first; it != last; ++it) {
    const auto& [k, v] = *it;
    auto pos = std::lower_bound(
        rows.begin(), rows.end(), k,
        [](const ScanRow& r, const Key& key) { return r.key < key; });
    if (pos != rows.end() && pos->key == k) {
      if (v.has_value()) {
        pos->value = *v;
      } else {
        rows.erase(pos);
      }
    } else if (v.has_value()) {
      rows.insert(pos, {k, *v, 0});
    }
  }
  if (max_rows > 0 && static_cast<int64_t>(rows.size()) > max_rows) {
    rows.resize(max_rows);
  }
  // 2PL: lock the rows the scan observed.
  std::vector<std::string> lock_keys;
  lock_keys.reserve(rows.size());
  for (const ScanRow& row : rows) lock_keys.push_back(LockKey(table, row.key));
  RETURN_IF_ERROR(db_->lock_manager_.AcquireAll(
      id_, lock_keys, LockMode::kShared, db_->lock_timeout_ms()));
  return rows;
}

void ReadWriteTransaction::Put(const std::string& table, Key key,
                               std::string value) {
  writes_[table].insert_or_assign(std::move(key), std::move(value));
}

void ReadWriteTransaction::Delete(const std::string& table, Key key) {
  writes_[table].insert_or_assign(std::move(key), std::nullopt);
}

void ReadWriteTransaction::AddMessage(const std::string& topic,
                                      std::string payload) {
  messages_.push_back(QueueMessage{topic, std::move(payload), 0});
}

StatusOr<CommitResult> ReadWriteTransaction::Commit(Timestamp min_allowed,
                                                    Timestamp max_allowed) {
  if (finished_) return FailedPreconditionError("transaction finished");
  FS_SPAN("spanner.commit");
  // Injected commit failures happen before any locks or data are touched,
  // so they are always definitive (safe to retry).
  if (Status fault = FS_FAULT_POINT("spanner.txn.commit"); !fault.ok()) {
    Abort();
    return fault;
  }
  if (db_->lock_manager_.IsWounded(id_)) {
    Abort();
    return AbortedError("transaction wounded by an older transaction");
  }
  // Acquire exclusive locks on the write set (paper §IV-D2 step 6: "Spanner
  // acquires additional exclusive locks on the specific IndexEntries rows").
  size_t rows = 0;
  for (const auto& [table, keys] : writes_) rows += keys.size();
  std::vector<std::string> lock_keys;
  lock_keys.reserve(rows);
  for (const auto& [table, keys] : writes_) {
    for (const auto& [key, value] : keys) {
      lock_keys.push_back(LockKey(table, key));
    }
  }
  if (Status s = db_->lock_manager_.AcquireAll(
          id_, lock_keys, LockMode::kExclusive, db_->lock_timeout_ms());
      !s.ok()) {
    Abort();
    return s;
  }
  CommitResult result;
  {
    WriterMutexLock data_lock(&db_->data_mu_);
    StatusOr<Timestamp> ts = db_->oracle_.Allocate(min_allowed, max_allowed);
    if (!ts.ok()) {
      data_lock.Unlock();
      Abort();
      return ts.status();
    }
    result.commit_ts = *ts;
    // Every table must exist before any row is applied.
    std::vector<Table*> tables;
    tables.reserve(writes_.size());
    for (const auto& [table, keys] : writes_) {
      auto table_it = db_->tables_.find(table);
      if (table_it == db_->tables_.end()) {
        // Abort clears writes_, and `table` with it.
        Status missing = NotFoundError("no such table: " + table);
        data_lock.Unlock();
        Abort();
        return missing;
      }
      tables.push_back(table_it->second.get());
    }
    auto table = tables.begin();
    for (const auto& [name, keys] : writes_) {
      // A table's keys arrive sorted and its tablets tile the key space in
      // order, so each 2PC participant starts where the tablet changes.
      Tablets::const_iterator last = (*table)->tablets().end();
      for (const auto& [key, value] : keys) {
        Tablets::const_iterator tablet = (*table)->Apply(key, value, *ts);
        if (tablet != last) ++result.participants;
        last = tablet;
      }
      ++table;
    }
  }
  for (QueueMessage& m : messages_) {
    m.commit_ts = result.commit_ts;
    db_->queue_.Push(std::move(m));
  }
  finished_ = true;
  db_->lock_manager_.ReleaseAll(id_);
  FS_METRIC_COUNTER("spanner.txn.commits").Increment();
  return result;
}

void ReadWriteTransaction::Abort() {
  finished_ = true;
  db_->lock_manager_.ReleaseAll(id_);
  writes_.clear();
  messages_.clear();
  FS_METRIC_COUNTER("spanner.txn.aborts").Increment();
}

// ---------------------------------------------------------------------------
// Database

Database::Database(const Clock* clock) : oracle_(clock) {}

Status Database::CreateTable(const std::string& name) {
  WriterMutexLock lock(&data_mu_);
  if (tables_.count(name) != 0) {
    return AlreadyExistsError("table exists: " + name);
  }
  tables_.emplace(name, std::make_unique<Table>(name));
  return Status::Ok();
}

Table* Database::GetTable(const std::string& name) {
  ReaderMutexLock lock(&data_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::GetTable(const std::string& name) const {
  ReaderMutexLock lock(&data_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::unique_ptr<ReadWriteTransaction> Database::BeginTransaction() {
  TxnId id = next_txn_id_.fetch_add(1);
  return std::unique_ptr<ReadWriteTransaction>(
      new ReadWriteTransaction(this, id));
}

Status Database::ForEachBatch(
    const std::string& table, const Key& prefix,
    const std::function<Status(ReadWriteTransaction& txn,
                               const std::vector<ScanRow>& rows)>& batch) {
  const Key limit = PrefixSuccessor(prefix);
  Key start = prefix;
  while (true) {
    auto txn = BeginTransaction();
    ASSIGN_OR_RETURN(std::vector<ScanRow> rows,
                     txn->Scan(table, start, limit, kBatchRows));
    if (rows.empty()) return Status::Ok();
    RETURN_IF_ERROR(batch(*txn, rows));
    RETURN_IF_ERROR(txn->Commit().status());
    start = KeySuccessor(rows.back().key);
  }
}

Status Database::DeletePrefix(const std::string& table, const Key& prefix) {
  return ForEachBatch(table, prefix, [&](ReadWriteTransaction& txn,
                                         const std::vector<ScanRow>& rows) {
    for (const ScanRow& row : rows) txn.Delete(table, row.key);
    return Status::Ok();
  });
}

Status Database::CheckReadTimestampLocked(Timestamp ts) const {
  if (ts >= gc_horizon_) return Status::Ok();
  return FailedPreconditionError(
      "read timestamp " + std::to_string(ts) +
      " is below the garbage-collection horizon " +
      std::to_string(gc_horizon_));
}

StatusOr<RowValue> Database::SnapshotRead(const std::string& table,
                                          const Key& key, Timestamp ts,
                                          Timestamp* version) const {
  RETURN_IF_ERROR(FS_FAULT_POINT("spanner.snapshot.read"));
  ReaderMutexLock lock(&data_mu_);
  RETURN_IF_ERROR(CheckReadTimestampLocked(ts));
  auto it = tables_.find(table);
  if (it == tables_.end()) return NotFoundError("no such table: " + table);
  return it->second->ReadAt(key, ts, version);
}

StatusOr<std::vector<ScanRow>> Database::SnapshotScan(
    const std::string& table, const Key& start, const Key& limit,
    Timestamp ts, int64_t max_rows) const {
  RETURN_IF_ERROR(FS_FAULT_POINT("spanner.snapshot.scan"));
  ReaderMutexLock lock(&data_mu_);
  RETURN_IF_ERROR(CheckReadTimestampLocked(ts));
  return ScanLocked(table, start, limit, ts, max_rows);
}

StatusOr<std::vector<ScanRow>> Database::ScanLocked(
    const std::string& table, const Key& start, const Key& limit,
    Timestamp ts, int64_t max_rows) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return NotFoundError("no such table: " + table);
  return it->second->ScanAt(start, limit, ts, max_rows);
}

int Database::RunLoadSplitting(int64_t load_threshold) {
  WriterMutexLock lock(&data_mu_);
  int splits = 0;
  int64_t tablets = 0;
  for (auto& [name, table] : tables_) {
    (void)name;
    splits += table->MaybeSplit(load_threshold);
    tablets += static_cast<int64_t>(table->tablet_count());
  }
  FS_METRIC_GAUGE("spanner.tablets").Set(tablets);
  return splits;
}

int64_t Database::GarbageCollect(Timestamp horizon) {
  WriterMutexLock lock(&data_mu_);
  // Each key keeps its newest version at or below `horizon`, and no version
  // is newer than the last allocated timestamp, so reads at or above the
  // smaller of the two stay exact; a horizon past "now" must not fail
  // strong reads.
  gc_horizon_ =
      std::max(gc_horizon_, std::min(horizon, oracle_.last_allocated()));
  int64_t dropped = 0;
  for (auto& [name, table] : tables_) {
    (void)name;
    dropped += table->GarbageCollect(horizon);
  }
  if (dropped > 0) {
    FS_METRIC_COUNTER("spanner.gc.versions_dropped").Increment(dropped);
  }
  return dropped;
}

}  // namespace firestore::spanner
