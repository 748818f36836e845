// Row-granular two-phase locking with wound-wait deadlock avoidance.
//
// Spanner transactions "are lock-based and use two-phase-commits across
// tablets" (paper §IV-D1); contention between Firestore transactional
// queries and writes is resolved "by failing and retrying such transactions"
// (§IV-D3). Wound-wait gives us deadlock freedom with deterministic victim
// selection: an older transaction requesting a lock held by a younger one
// wounds (aborts) the younger; a younger requester waits for the older.
//
// A commit locks every row it writes (about 17 per document with automatic
// indexing, paper §IV-C), so the table is built to pay each key once: row
// locks live in one hash table keyed by the lock key, an entry exists only
// while it has holders, a transaction's held list points at the table's own
// entries, and AcquireAll grants a whole write set under one acquisition of
// the manager's mutex, moving each key it enters into the table. Range
// locks, when they come, belong in a separate ordered structure next to this
// row table.

#ifndef FIRESTORE_SPANNER_LOCK_MANAGER_H_
#define FIRESTORE_SPANNER_LOCK_MANAGER_H_

#include <chrono>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace firestore::spanner {

using TxnId = uint64_t;  // monotonically increasing; lower id == older

enum class LockMode { kShared, kExclusive };

class LockManager {
 public:
  // Grants `mode` on every key of `keys`, in order, under one acquisition of
  // the manager's mutex. A key that conflicts blocks until it is granted,
  // the transaction is wounded (ABORTED) or `timeout_ms` elapses
  // (DEADLINE_EXCEEDED; 0 = no timeout); the batch then goes on with the
  // next key. On an error the keys granted before it stay held until
  // ReleaseAll. Keys are namespaced by table via the caller ("table/key").
  // Re-entrant: upgrading shared->exclusive is supported and subject to the
  // same wound-wait rules. A key this call enters into the table is moved
  // out of `keys`.
  Status AcquireAll(TxnId txn, std::span<std::string> keys, LockMode mode,
                    int64_t timeout_ms = 0);

  // AcquireAll for one key.
  Status Acquire(TxnId txn, std::string key, LockMode mode,
                 int64_t timeout_ms = 0) {
    return AcquireAll(txn, std::span<std::string>(&key, 1), mode,
                      timeout_ms);
  }

  // Releases every lock held by `txn` and clears its wounded flag.
  void ReleaseAll(TxnId txn);

  // Marks `txn` wounded; its current and future Acquire calls return ABORTED.
  void Wound(TxnId txn);
  bool IsWounded(TxnId txn) const;

  // Introspection for tests: the keys with at least one holder.
  int LockCount() const;

 private:
  struct Holder {
    TxnId txn = 0;
    LockMode mode = LockMode::kShared;
  };

  // The holders of one key: several shared, or one exclusive. There is
  // almost always one, so the first is stored inline and only further
  // shared holders allocate.
  class Holders {
   public:
    bool empty() const { return !has_first_; }
    // `txn`'s entry, or null.
    Holder* Find(TxnId txn);
    void Add(Holder holder);
    void Remove(TxnId txn);
    template <typename Fn>
    void ForEach(Fn fn) const {
      if (!has_first_) return;
      fn(first_);
      for (const Holder& holder : more_) fn(holder);
    }

   private:
    bool has_first_ = false;
    Holder first_;
    std::vector<Holder> more_;
  };

  using LockTable = std::unordered_map<std::string, Holders>;
  using Entry = LockTable::value_type;
  using Deadline = std::chrono::steady_clock::time_point;

  // True if `txn` can hold `mode` on a key with these holders right now.
  static bool Compatible(const Holders& holders, TxnId txn, LockMode mode);

  // Wound-wait on a key `txn` cannot take yet: wounds its younger holders,
  // then waits once for a release. Fails if the wait times out or `txn` is
  // wounded; mu_ is released while it waits.
  Status WaitLocked(TxnId txn, const Holders& holders, int64_t timeout_ms,
                    Deadline deadline) FS_REQUIRES(mu_);

  mutable Mutex mu_;
  CondVar cv_;
  LockTable locks_ FS_GUARDED_BY(mu_);
  std::set<TxnId> wounded_ FS_GUARDED_BY(mu_);
  // txn -> the table entries it holds. An entry is erased only once it has
  // no holders, so these never dangle.
  std::unordered_map<TxnId, std::vector<Entry*>> held_ FS_GUARDED_BY(mu_);
};

}  // namespace firestore::spanner

#endif  // FIRESTORE_SPANNER_LOCK_MANAGER_H_
