// Query planner: greedy index-set selection (paper §IV-D3).
//
// "Selecting the ideal set of indexes to join for a query is intractable, so
// Firestore's query engine uses a greedy index-set selection algorithm that
// optimizes for the number of selected indexes. If no such set exists,
// Firestore returns an error message that includes a link for adding the
// required index."

#ifndef FIRESTORE_QUERY_PLANNER_H_
#define FIRESTORE_QUERY_PLANNER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "firestore/index/catalog.h"
#include "firestore/index/layout.h"
#include "firestore/query/query.h"

namespace firestore::query {

// One key range of one table participating in the plan: a range of one
// index in IndexEntries, or a collection's range of Entities.
struct IndexScan {
  std::string table = index::kIndexEntriesTable;
  index::IndexId index_id = 0;
  // Absolute key bounds within `table`: [start_key, limit_key).
  std::string start_key;
  std::string limit_key;
  // Byte length of this scan's fixed prefix (database + index id + encoded
  // equality values; the database alone over Entities). The remainder of
  // each row key — the scan's *suffix* — is the shared (order values...,
  // document name) tuple that zig-zag joining merges on.
  size_t prefix_len = 0;
  // Fields of the suffix's value components, in order (parallel to the
  // plan's suffix_directions). Lets aggregations decode field values
  // directly from index keys without fetching documents.
  std::vector<model::FieldPath> suffix_fields;
  // Human-readable description for EXPLAIN-style output.
  std::string description;
};

struct QueryPlan {
  // Single element = plain range scan; multiple = zig-zag join, merging on
  // the common suffix. A filter-less, order-less query scans its
  // collection's Entities range, where documents are name-ordered.
  std::vector<IndexScan> scans;
  // Directions of the shared order-suffix components (true = descending),
  // used to parse the document name off each suffix.
  std::vector<bool> suffix_directions;

  std::string DebugString() const;
};

// Plans `query` against the active indexes of its collection in `catalog`,
// leaving out any index that became whole after `read_ts` (a read at the
// latest version passes no bound). Fails with FAILED_PRECONDITION (message
// mirrors Firestore's "add the required index" error) when no index set can
// serve the query, and when the query may use automatic indexes that
// `catalog` has not materialized: those are appended to `*missing` (when
// given), for the caller to materialize and plan again.
StatusOr<QueryPlan> PlanQuery(
    const index::CatalogSnapshot& catalog, std::string_view database_id,
    const Query& query, spanner::Timestamp read_ts = spanner::kMaxTimestamp,
    std::vector<index::AutoIndexKey>* missing = nullptr);

}  // namespace firestore::query

#endif  // FIRESTORE_QUERY_PLANNER_H_
