// Per-database index catalog.
//
// Firestore "automatically defines an ascending and descending index on each
// field across all documents" plus an array-contains index, and lets the
// customer exempt fields from automatic indexing and define composite
// indexes (paper §III-B). Automatic definitions are materialized lazily: the
// first write or query touching a (collection, field, kind) combination
// allocates its stable index id.
//
// Readers see the catalog as an immutable CatalogSnapshot: a request takes
// one with Snapshot() and reads every definition from it by reference. Each
// change copies the current snapshot, edits the copy and publishes it whole,
// so a snapshot never changes once taken and outlives any later change.
//
// A commit takes its snapshot after it holds the exclusive locks on the
// documents it writes. An index the snapshot lacks was then added after the
// commit locked its rows, and the index's backfill, which re-reads each row
// under its lock, waits for the commit and indexes what it wrote. A snapshot
// taken before the locks could miss an index whose backfill had already
// passed the row. This covers updates, not inserts: the scan cannot lock a
// row that does not exist yet, so an insert racing it goes unindexed.

#ifndef FIRESTORE_INDEX_CATALOG_H_
#define FIRESTORE_INDEX_CATALOG_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "firestore/index/index_definition.h"

namespace firestore::index {

// An automatic index a request needs: one (collection, field, kind).
struct AutoIndexKey {
  std::string collection_id;
  model::FieldPath field;
  SegmentKind kind = SegmentKind::kAscending;
};

// Orders tuples and pairs of strings (and a SegmentKind) field by field, as
// std::tuple does, and compares them with the same shapes of
// std::string_view, so a lookup copies no string.
struct FieldwiseOrder {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    return Views(a) < Views(b);
  }

 private:
  template <typename Tuple>
  static auto Views(const Tuple& t) {
    return std::apply(
        [](const auto&... field) { return std::make_tuple(View(field)...); },
        t);
  }
  static std::string_view View(std::string_view s) { return s; }
  static SegmentKind View(SegmentKind kind) { return kind; }
};

// One immutable view of a database's index definitions: the catalog hands
// it out as `shared_ptr<const CatalogSnapshot>` and only ever edits a copy
// it has not yet published. `field` arguments are canonical field strings
// (FieldPath::CanonicalString).
struct CatalogSnapshot {
  // The definition with this id, or null.
  const IndexDefinition* Find(IndexId index_id) const;

  // The id of the materialized automatic index (collection, field, kind),
  // or 0 if it is not materialized.
  IndexId AutoIndexId(std::string_view collection_id, std::string_view field,
                      SegmentKind kind) const;

  bool IsExempted(std::string_view collection_id,
                  std::string_view field) const;

  // Every ACTIVE definition of a collection id that is whole at `read_ts`:
  // the planner's candidate set.
  std::vector<const IndexDefinition*> ActiveIndexes(
      const std::string& collection_id,
      spanner::Timestamp read_ts = spanner::kMaxTimestamp) const;

  // The composite definitions of a collection id that writes maintain: all
  // of them, whether active, backfilling or removing.
  std::vector<const IndexDefinition*> MaintainedComposites(
      const std::string& collection_id) const;

  // How many snapshots the catalog published before this one.
  int64_t version = 0;
  // Every id below this was allocated before the snapshot was published.
  IndexId next_id = 1;
  std::map<IndexId, IndexDefinition> indexes;
  // (collection, field canonical, kind) -> id for automatic indexes.
  std::map<std::tuple<std::string, std::string, SegmentKind>, IndexId,
           FieldwiseOrder>
      auto_ids;
  std::set<std::pair<std::string, std::string>, FieldwiseOrder> exemptions;
};

class IndexCatalog {
 public:
  // The current definitions; later changes publish a new snapshot and leave
  // this one as it is.
  std::shared_ptr<const CatalogSnapshot> Snapshot() const;

  // Materializes, in order and under one lock, every automatic index of
  // `wanted` that is neither materialized nor exempted, and returns the
  // snapshot it publishes.
  std::shared_ptr<const CatalogSnapshot> MaterializeAutoIndexes(
      const std::vector<AutoIndexKey>& wanted);

  // Excludes a field from automatic indexing (queries needing it then fail,
  // and writes stop producing its entries) and, in the same publish, marks
  // its automatic indexes kRemoving; returns their ids for
  // IndexBackfillService::ExemptField to remove (paper §IV-D1).
  std::vector<IndexId> AddExemption(const std::string& collection_id,
                                    const model::FieldPath& field);

  // Registers a composite index in the given initial state; returns its id.
  // The index becomes queryable once SetIndexState(kActive) is called (the
  // backfill service does this when the backfill completes).
  StatusOr<IndexId> AddCompositeIndex(const std::string& collection_id,
                                      std::vector<IndexSegment> segments,
                                      IndexState initial_state);

  // `active_since` is recorded on the definition when `state` is kActive.
  Status SetIndexState(IndexId index_id, IndexState state,
                       spanner::Timestamp active_since = 0);
  Status RemoveIndex(IndexId index_id);

 private:
  // Copies the current snapshot, applies `edit` to the copy and publishes
  // it, all under mu_; an `edit` that fails publishes nothing.
  StatusOr<std::shared_ptr<const CatalogSnapshot>> Publish(
      const std::function<Status(CatalogSnapshot&)>& edit);

  mutable Mutex mu_;
  std::shared_ptr<const CatalogSnapshot> snapshot_ FS_GUARDED_BY(mu_) =
      std::make_shared<const CatalogSnapshot>();
};

}  // namespace firestore::index

#endif  // FIRESTORE_INDEX_CATALOG_H_
