// Multi-version row storage: a Table, its rows and its tablets.
//
// A Table holds all of its rows in one ordered set. Its key space is tiled
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
// older ones, which GC trims and frees.
//
// Automatic indexing (paper §IV-C) makes most rows index entries: a key of
// about 70 bytes and an empty value. So a row is one heap block, a 32-byte
// header followed by its key bytes, reached from one set node, and every
// version holds its value as an 8-byte handle that allocates nothing for an
// empty value.
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
#include <set>
#include <string>
#include <string_view>
#include <utility>
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
// the next start key (the last one is unbounded above). Looked up by
// std::string_view as well as by Key.
using Tablets = std::map<Key, TabletStats, std::less<>>;

// The rows of one table, and the tablets covering its whole key space.
class Table {
 public:
  explicit Table(std::string name);

  const std::string& name() const { return name_; }

  // Adds a version (timestamps rise per key, never fall across the table),
  // counts a write on its tablet, and queues an overwrite or tombstone for GC.
  // Returns the tablet charged: a commit counts its 2PC participants by it.
  Tablets::const_iterator Apply(const Key& key, const RowValue& value,
                                Timestamp ts);

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
  Tablets::const_iterator TabletForKey(std::string_view key) const {
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
    return std::count_if(rows_.begin(), rows_.end(), [](const RowPtr& r) {
      return r->older != nullptr;
    });
  }

  size_t tablet_count() const { return tablets_.size(); }
  const Tablets& tablets() const { return tablets_; }

 private:
  // One version's value in 8 bytes: null is a tombstone, every empty value
  // shares one static block, and any other value is one heap block holding
  // its length and then its bytes. Move-only; frees its block.
  class StoredValue {
   public:
    StoredValue() = default;  // a tombstone
    explicit StoredValue(const RowValue& value);
    StoredValue(StoredValue&& other) noexcept
        : block_(std::exchange(other.block_, nullptr)) {}
    // The moved-from handle takes this one's block and frees it.
    StoredValue& operator=(StoredValue&& other) noexcept {
      std::swap(block_, other.block_);
      return *this;
    }
    ~StoredValue();

    bool has_value() const { return block_ != nullptr; }
    // The bytes of a value that is not a tombstone.
    std::string_view bytes() const;
    RowValue ToRowValue() const;

   private:
    char* block_ = nullptr;
  };
  static_assert(sizeof(StoredValue) == 8);

  // A row's one heap block is this header followed by the key's bytes.
  struct Row {
    // The newest version.
    Timestamp ts = 0;
    StoredValue value;
    // The versions it shadows, in ascending timestamp order; null while the
    // row has one version.
    std::unique_ptr<std::vector<std::pair<Timestamp, StoredValue>>> older;
    size_t key_size = 0;

    std::string_view key() const {
      return {reinterpret_cast<const char*>(this + 1), key_size};
    }
    // The newest version at or before `at`, as {timestamp, value}; {0,
    // nullptr} if every version is newer.
    std::pair<Timestamp, const StoredValue*> VersionAt(Timestamp at) const;
  };
  // On glibc a row with a 72-byte key is one 112-byte chunk (the 32-byte
  // header, the key and malloc's 8-byte size word, rounded up to 16) plus a
  // 48-byte set node (32 bytes of tree links and the row pointer); an empty
  // value allocates nothing.
  static_assert(sizeof(Row) <= 32);

  struct RowDeleter {
    void operator()(Row* row) const;
  };
  using RowPtr = std::unique_ptr<Row, RowDeleter>;
  // A row with key `key` and no version yet.
  static RowPtr NewRow(std::string_view key);

  // Orders rows by key exactly as std::string does, and compares a row with
  // a bare key, so lookups build no row.
  struct KeyOrder {
    using is_transparent = void;
    static std::string_view KeyOf(const RowPtr& row) { return row->key(); }
    static std::string_view KeyOf(std::string_view key) { return key; }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return KeyOf(a) < KeyOf(b);
    }
  };
  using Rows = std::set<RowPtr, KeyOrder>;

  std::string name_;
  Rows rows_;
  // (ts, row) of each overwrite and tombstone, in timestamp order.
  std::deque<std::pair<Timestamp, Rows::iterator>> gc_queue_;
  Tablets tablets_;
};

}  // namespace firestore::spanner

#endif  // FIRESTORE_SPANNER_STORAGE_H_
