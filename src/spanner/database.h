// The Spanner database facade: tables, transactions, snapshot reads,
// directories, and the transactional message queue.
//
// Firestore maps each logical database to a directory (a key prefix guiding
// sharding/placement) within a small number of pre-initialized Spanner
// databases per region (paper §IV-D1). One spanner::Database instance here
// plays the role of one of those regional Spanner databases, hosting many
// Firestore tenants.

#ifndef FIRESTORE_SPANNER_DATABASE_H_
#define FIRESTORE_SPANNER_DATABASE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "spanner/lock_manager.h"
#include "spanner/message_queue.h"
#include "spanner/storage.h"
#include "spanner/truetime.h"

namespace firestore::spanner {

class Database;

// Rows per step of a storage walk: Database::ForEachBatch, query::ForEachRow.
inline constexpr int64_t kBatchRows = 128;

struct CommitResult {
  Timestamp commit_ts = 0;
  // Number of distinct tablets written (2PC participants), for latency
  // modeling: a multi-tablet commit pays the two-phase-commit cost.
  int participants = 0;
};

// A lock-based read-write transaction (Spanner semantics: 2PL for reads,
// exclusive locks on written rows acquired at commit, commit timestamp from
// the oracle within a caller-supplied window).
class ReadWriteTransaction {
 public:
  ~ReadWriteTransaction();

  ReadWriteTransaction(const ReadWriteTransaction&) = delete;
  ReadWriteTransaction& operator=(const ReadWriteTransaction&) = delete;

  TxnId id() const { return id_; }

  // Reads the latest committed value, taking a shared (or exclusive) lock.
  // Sees this transaction's own buffered writes (their version reads as 0).
  // `version` (optional) receives the version's commit timestamp.
  StatusOr<RowValue> Read(const std::string& table, const Key& key,
                          LockMode mode = LockMode::kShared,
                          Timestamp* version = nullptr);

  // Scans latest committed rows in [start, limit), taking shared locks on
  // every returned row. `max_rows` of 0 means unlimited. Buffered writes of
  // this transaction are merged into the result before `max_rows` applies,
  // so a page is short only at the end of the range.
  StatusOr<std::vector<ScanRow>> Scan(const std::string& table,
                                      const Key& start, const Key& limit,
                                      int64_t max_rows = 0);

  // Buffers a write / delete, taking the key and value over. Locks are
  // acquired during Commit.
  void Put(const std::string& table, Key key, std::string value);
  void Delete(const std::string& table, Key key);

  // Buffers a transactional message (delivered iff the commit succeeds).
  void AddMessage(const std::string& topic, std::string payload);

  // Two-phase commit: acquires exclusive locks on the write set, allocates a
  // timestamp in [min_allowed, max_allowed], applies atomically. On error
  // the transaction is fully rolled back and unusable.
  StatusOr<CommitResult> Commit(Timestamp min_allowed = 0,
                                Timestamp max_allowed = kMaxTimestamp);

  void Abort();

 private:
  friend class Database;
  ReadWriteTransaction(Database* db, TxnId id) : db_(db), id_(id) {}

  std::string LockKey(const std::string& table, const Key& key) const;

  Database* db_;
  TxnId id_;
  bool finished_ = false;
  // table -> key -> value-or-tombstone
  std::map<std::string, std::map<Key, RowValue>> writes_;
  std::vector<QueueMessage> messages_;
};

class Database {
 public:
  explicit Database(const Clock* clock);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Table management. Creating an existing table is an error.
  Status CreateTable(const std::string& name);
  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;

  std::unique_ptr<ReadWriteTransaction> BeginTransaction();

  // Walks the live rows of `table` under `prefix` in batches of kBatchRows,
  // each in its own read-write transaction: it scans (and share-locks) the
  // batch, `batch` buffers writes in it, and it commits.
  Status ForEachBatch(
      const std::string& table, const Key& prefix,
      const std::function<Status(ReadWriteTransaction& txn,
                                 const std::vector<ScanRow>& rows)>& batch);
  // Deletes every row of `table` under `prefix`, a batch per transaction.
  Status DeletePrefix(const std::string& table, const Key& prefix);

  // Lock-free timestamped reads (paper §IV-D1: "the serializability
  // guarantee on timestamps allows Firestore to perform lock-free consistent
  // reads across a database without blocking writes"). A read below the
  // garbage-collection horizon fails FAILED_PRECONDITION (Spanner's "read
  // timestamp too old"): the versions it needs may be gone.
  StatusOr<RowValue> SnapshotRead(const std::string& table, const Key& key,
                                  Timestamp ts,
                                  Timestamp* version = nullptr) const;
  StatusOr<std::vector<ScanRow>> SnapshotScan(const std::string& table,
                                              const Key& start,
                                              const Key& limit, Timestamp ts,
                                              int64_t max_rows = 0) const;

  // Timestamp for a strongly-consistent read of current data.
  Timestamp StrongReadTimestamp() const {
    return oracle_.StrongReadTimestamp();
  }
  Timestamp last_commit_ts() const { return oracle_.last_allocated(); }

  MessageQueue& queue() { return queue_; }
  LockManager& lock_manager() { return lock_manager_; }

  // Background maintenance: load-based tablet splitting across all tables.
  // Returns splits performed; sets the `spanner.tablets` gauge.
  int RunLoadSplitting(int64_t load_threshold);

  // MVCC garbage collection of versions older than `horizon`. Raises the
  // horizon below which snapshot reads fail to min(horizon, last allocated
  // timestamp); it never moves back.
  int64_t GarbageCollect(Timestamp horizon);

  // Lock wait timeout applied to transactional reads/commits.
  void set_lock_timeout_ms(int64_t ms) {
    lock_timeout_ms_.store(ms, std::memory_order_relaxed);
  }

 private:
  friend class ReadWriteTransaction;

  int64_t lock_timeout_ms() const {
    return lock_timeout_ms_.load(std::memory_order_relaxed);
  }

  TimestampOracle oracle_;
  LockManager lock_manager_;
  MessageQueue queue_;
  std::atomic<TxnId> next_txn_id_{1};
  // Atomic: tests adjust it while transactions are in flight.
  std::atomic<int64_t> lock_timeout_ms_{2000};

  // Guards table structure and row data: commits take it exclusively,
  // snapshot reads take it shared. Commit allocates its timestamp while
  // holding it (string target: TimestampOracle::mu_ is private).
  mutable SharedMutex data_mu_
      FS_ACQUIRED_BEFORE("spanner::TimestampOracle::mu_");
  std::map<std::string, std::unique_ptr<Table>> tables_
      FS_GUARDED_BY(data_mu_);
  // Snapshots below this may have lost versions to GarbageCollect.
  Timestamp gc_horizon_ FS_GUARDED_BY(data_mu_) = 0;

  Status CheckReadTimestampLocked(Timestamp ts) const
      FS_REQUIRES_SHARED(data_mu_);
  // Up to `max_rows` (0 = all) live rows of `table` in [start, limit) at
  // `ts`, in key order.
  StatusOr<std::vector<ScanRow>> ScanLocked(const std::string& table,
                                            const Key& start,
                                            const Key& limit, Timestamp ts,
                                            int64_t max_rows) const
      FS_REQUIRES_SHARED(data_mu_);
};

}  // namespace firestore::spanner

#endif  // FIRESTORE_SPANNER_DATABASE_H_
