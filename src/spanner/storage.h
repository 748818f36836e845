// Multi-version row storage: Table and its Tablets.
//
// A Table holds all of its rows in one ordered map. Its key space is
// partitioned into Tablets, consecutive key ranges [start_key, limit_key)
// that own no rows (paper §IV-D1: "Spanner's automatic load-based splitting
// and merging of rows into tablets"). A tablet is the unit of load
// accounting, load-based splitting and 2PC participant counting, so a split
// only inserts a boundary and moves no rows. Rows are multi-versioned: every
// committed write adds a (timestamp, value-or-tombstone) version, enabling
// lock-free snapshot reads at any past timestamp.
//
// Thread-compatible: the Database serializes access (commits exclusive,
// snapshot reads shared).

#ifndef FIRESTORE_SPANNER_STORAGE_H_
#define FIRESTORE_SPANNER_STORAGE_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "spanner/truetime.h"

namespace firestore::spanner {

using Key = std::string;
// nullopt == tombstone (row deleted at that version).
using RowValue = std::optional<std::string>;

struct ScanRow {
  Key key;
  std::string value;
  Timestamp version = 0;  // commit timestamp of the returned version
};

struct TabletStats {
  // Load counters are atomic: snapshot reads bump them while holding the
  // database lock only in shared mode, racing other shared-mode readers
  // (load splitting holds it exclusively).
  std::atomic<int64_t> reads{0};
  std::atomic<int64_t> writes{0};
};

// One contiguous key range [start_key, limit_key) of a table. An empty
// limit_key means "unbounded above".
class Tablet {
 public:
  Tablet(Key start_key, Key limit_key)
      : start_key_(std::move(start_key)), limit_key_(std::move(limit_key)) {}

  const Key& start_key() const { return start_key_; }
  const Key& limit_key() const { return limit_key_; }
  bool Contains(const Key& key) const;

  const TabletStats& stats() const { return stats_; }

 private:
  friend class Table;

  Key start_key_;
  Key limit_key_;
  mutable TabletStats stats_;
};

// The rows of one table, and the tablets covering its whole key space.
class Table {
 public:
  explicit Table(std::string name);

  const std::string& name() const { return name_; }

  // Adds a version (timestamps rise per key, never fall across the table),
  // counts a write on its tablet, and queues an overwrite or tombstone for GC.
  void Apply(const Key& key, RowValue value, Timestamp ts);

  // Latest version at or before `ts`; nullopt if the row does not exist at
  // `ts` (never written, or tombstoned). If `version` is non-null it
  // receives the commit timestamp of the version found (a tombstone's for
  // a deleted row), or 0 when no version is at or before `ts`. Counts a
  // read on the key's tablet.
  RowValue ReadAt(const Key& key, Timestamp ts,
                  Timestamp* version = nullptr) const;

  // Up to `max_rows` (0 = all) live rows in [start, limit) at `ts`, in key
  // order. `limit` empty = unbounded. Each returned row counts as a read on
  // the tablet that owns it.
  std::vector<ScanRow> ScanAt(const Key& start, const Key& limit,
                              Timestamp ts, int64_t max_rows = 0) const;

  // The tablet owning `key`.
  Tablet* TabletForKey(const Key& key);
  const Tablet* TabletForKey(const Key& key) const;

  // Load-based maintenance: splits every tablet whose accumulated write+read
  // count reaches `load_threshold` (at the middle one of its stored keys)
  // and resets load counters. Returns the number of splits performed.
  int MaybeSplit(int64_t load_threshold);

  // Explicit pre-split, e.g. to initialize a database "with enough data to
  // ensure that commits spanned multiple tablets" (paper §V-B2).
  Status SplitAt(const Key& split_key);

  // Drops versions older than `horizon` that are shadowed by newer ones
  // (MVCC garbage collection), and rows reduced to one old tombstone.
  // Returns versions dropped. Its cost follows the queued writes at or
  // below `horizon`, not the size of the store.
  int64_t GarbageCollect(Timestamp horizon);
  size_t gc_queue_size() const { return gc_queue_.size(); }

  size_t tablet_count() const { return tablets_.size(); }
  const std::vector<std::unique_ptr<Tablet>>& tablets() const {
    return tablets_;
  }

  // Distinct tablets touched by a set of keys (the 2PC participant count).
  int ParticipantCount(const std::vector<Key>& keys) const;

 private:
  using Versions = std::map<Timestamp, RowValue>;

  size_t TabletIndexForKey(const Key& key) const;
  // Ends tablet `index` at `split_key` (strictly inside its range), inserts
  // the upper half after it, and resets the lower half's load counters.
  void SplitTablet(size_t index, const Key& split_key);

  std::string name_;
  std::map<Key, Versions> rows_;
  // (ts, row) of each overwrite and tombstone, in timestamp order.
  std::deque<std::pair<Timestamp, std::map<Key, Versions>::iterator>>
      gc_queue_;
  std::vector<std::unique_ptr<Tablet>> tablets_;  // sorted by start_key
};

}  // namespace firestore::spanner

#endif  // FIRESTORE_SPANNER_STORAGE_H_
