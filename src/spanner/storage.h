// Multi-version row storage: Tablet and Table.
//
// A Table's key space is partitioned into Tablets, each holding a consecutive
// key range (paper §IV-D1: "Spanner's automatic load-based splitting and
// merging of rows into tablets"). Rows are multi-versioned: every committed
// write adds a (timestamp, value-or-tombstone) version, enabling lock-free
// snapshot reads at any past timestamp.
//
// Thread-compatible: the Database serializes access (commits exclusive,
// snapshot reads shared).

#ifndef FIRESTORE_SPANNER_STORAGE_H_
#define FIRESTORE_SPANNER_STORAGE_H_

#include <atomic>
#include <functional>
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

struct TabletStats {
  // Load counters are atomic: snapshot reads bump them while holding the
  // database lock only in shared mode, racing other readers and the
  // load-splitting scan.
  std::atomic<int64_t> reads{0};
  std::atomic<int64_t> writes{0};
  int64_t bytes = 0;  // approximate stored bytes (latest versions)
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

  // Adds a version. Timestamps for one key must arrive in increasing order
  // (guaranteed by the commit protocol).
  void Apply(const Key& key, RowValue value, Timestamp ts);

  // Latest version at or before `ts`; nullopt if the row does not exist at
  // `ts` (never written, or tombstoned). If `version` is non-null it
  // receives the returned version's commit timestamp (0 when absent).
  RowValue ReadAt(const Key& key, Timestamp ts,
                  Timestamp* version = nullptr) const;

  // In-order scan of live rows in [start, limit) at `ts`. `limit` empty =
  // unbounded. Callback (key, value, version) returns false to stop.
  // Returns whether the callback stopped the scan.
  bool ScanAt(const Key& start, const Key& limit, Timestamp ts,
              const std::function<bool(const Key&, const std::string&,
                                       Timestamp)>& cb) const;

  // Splits this tablet at `split_key` (must lie strictly inside the range);
  // returns the new upper tablet.
  std::unique_ptr<Tablet> SplitAt(const Key& split_key);

  // Key that divides this tablet's rows roughly in half; nullopt if fewer
  // than two rows.
  std::optional<Key> MedianKey() const;

  // Drops versions older than `horizon` that are shadowed by newer ones
  // (MVCC garbage collection). Returns versions dropped.
  int64_t GarbageCollect(Timestamp horizon);

  const TabletStats& stats() const { return stats_; }
  void ResetLoadStats();
  int64_t row_count() const { return static_cast<int64_t>(rows_.size()); }

 private:
  friend class Table;

  using Versions = std::map<Timestamp, RowValue>;

  Key start_key_;
  Key limit_key_;
  std::map<Key, Versions> rows_;
  mutable TabletStats stats_;
};

// An ordered collection of tablets covering the whole key space.
class Table {
 public:
  explicit Table(std::string name);

  const std::string& name() const { return name_; }

  void Apply(const Key& key, RowValue value, Timestamp ts);
  RowValue ReadAt(const Key& key, Timestamp ts,
                  Timestamp* version = nullptr) const;

  // Scans across tablets; same callback contract as Tablet::ScanAt.
  void ScanAt(const Key& start, const Key& limit, Timestamp ts,
              const std::function<bool(const Key&, const std::string&,
                                       Timestamp)>& cb) const;

  // The tablet owning `key`.
  Tablet* TabletForKey(const Key& key);
  const Tablet* TabletForKey(const Key& key) const;

  // Load-based maintenance: splits every tablet whose accumulated write+read
  // count exceeds `load_threshold` (at its median key) and resets load
  // counters. Returns the number of splits performed.
  int MaybeSplit(int64_t load_threshold);

  // Explicit pre-split, e.g. to initialize a database "with enough data to
  // ensure that commits spanned multiple tablets" (paper §V-B2).
  Status SplitAt(const Key& split_key);

  int64_t GarbageCollect(Timestamp horizon);

  size_t tablet_count() const { return tablets_.size(); }
  const std::vector<std::unique_ptr<Tablet>>& tablets() const {
    return tablets_;
  }

  // Distinct tablets touched by a set of keys (the 2PC participant count).
  int ParticipantCount(const std::vector<Key>& keys) const;

 private:
  size_t TabletIndexForKey(const Key& key) const;

  std::string name_;
  std::vector<std::unique_ptr<Tablet>> tablets_;  // sorted by start_key
};

}  // namespace firestore::spanner

#endif  // FIRESTORE_SPANNER_STORAGE_H_
