// Multi-version row storage: a Table, its rows and its tablets.
//
// A Table holds all of its rows in one ordered map. Its key space is tiled
// by tablets, kept as one map from start key to load counters: the first
// tablet starts at "" and each runs up to the next start key (paper §IV-D1:
// "Spanner's automatic load-based splitting and merging of rows into
// tablets"). A tablet owns no rows; it is the unit of load accounting,
// load-based splitting and 2PC participant counting, so a split only inserts
// a start key and moves no rows. A tablet's load is what it served since the
// last splitting pass, so a steady load settles into a fixed tiling. Rows are
// multi-versioned, enabling lock-free snapshot reads at any past timestamp: a
// row keeps its newest (timestamp, value-or-tombstone) version inline, and
// each committed write moves the version it replaces into the row's list of
// older ones, which GC trims and frees. So a row with one version costs one
// map node.
//
// Thread-compatible: the Database serializes access (commits exclusive,
// snapshot reads shared).

#ifndef FIRESTORE_SPANNER_STORAGE_H_
#define FIRESTORE_SPANNER_STORAGE_H_

#include <algorithm>
#include <atomic>
#include <deque>
#include <iterator>
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

// A tablet's load since the last splitting pass.
struct TabletStats {
  // Atomic and mutable: snapshot reads bump them through a const Table while
  // holding the database lock only in shared mode, racing other shared-mode
  // readers (a splitting pass holds it exclusively).
  mutable std::atomic<int64_t> reads{0};
  mutable std::atomic<int64_t> writes{0};
};

// Start key -> load. The first start key is "", and each tablet runs up to
// the next start key (the last one is unbounded above).
using Tablets = std::map<Key, TabletStats>;

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

  // The tablet owning `key`: the last one starting at or before it.
  Tablets::const_iterator TabletForKey(const Key& key) const {
    return std::prev(tablets_.upper_bound(key));
  }

  // Load-based maintenance: splits every tablet whose reads+writes since the
  // last pass reach `load_threshold` at the middle one of its stored keys,
  // and starts every tablet's next load window at zero. Returns the number
  // of splits performed.
  int MaybeSplit(int64_t load_threshold);

  // Explicit pre-split (ALREADY_EXISTS if `split_key` starts a tablet), e.g.
  // to initialize a database "with enough data to ensure that commits
  // spanned multiple tablets" (paper §V-B2).
  Status SplitAt(const Key& split_key);

  // Drops versions older than `horizon` that are shadowed by newer ones
  // (MVCC garbage collection), and rows reduced to one old tombstone.
  // Returns versions dropped. Its cost follows the queued writes at or
  // below `horizon`, not the size of the store.
  int64_t GarbageCollect(Timestamp horizon);
  size_t gc_queue_size() const { return gc_queue_.size(); }
  // For tests, O(rows): the rows holding a list of older versions.
  size_t rows_with_older_versions() const {
    return std::count_if(rows_.begin(), rows_.end(), [](const auto& r) {
      return r.second.older != nullptr;
    });
  }

  size_t tablet_count() const { return tablets_.size(); }
  const Tablets& tablets() const { return tablets_; }

  // Distinct tablets touched by a set of keys (the 2PC participant count).
  int ParticipantCount(const std::vector<Key>& keys) const;

 private:
  struct Row {
    // The newest version.
    Timestamp ts = 0;
    RowValue value;
    // The versions it shadows, in ascending timestamp order; null while the
    // row has one version.
    std::unique_ptr<std::vector<std::pair<Timestamp, RowValue>>> older;

    // The newest version at or before `at`, as {timestamp, value}; {0,
    // nullptr} if every version is newer.
    std::pair<Timestamp, const RowValue*> VersionAt(Timestamp at) const;
  };
  // On libstdc++ a row's map node (32 bytes of tree links, a 32-byte key and
  // the Row) fits a 128-byte malloc chunk.
  static_assert(sizeof(Row) <= 56);

  std::string name_;
  std::map<Key, Row> rows_;
  // (ts, row) of each overwrite and tombstone, in timestamp order.
  std::deque<std::pair<Timestamp, std::map<Key, Row>::iterator>> gc_queue_;
  Tablets tablets_;
};

}  // namespace firestore::spanner

#endif  // FIRESTORE_SPANNER_STORAGE_H_
