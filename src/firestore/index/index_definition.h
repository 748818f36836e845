// Index definitions: automatic single-field indexes, array-contains
// indexes, and user-defined composite indexes (paper §III-B).

#ifndef FIRESTORE_INDEX_INDEX_DEFINITION_H_
#define FIRESTORE_INDEX_INDEX_DEFINITION_H_

#include <string>
#include <vector>

#include "firestore/index/layout.h"
#include "firestore/model/path.h"
#include "spanner/truetime.h"

namespace firestore::index {

// How a field participates in an index.
enum class SegmentKind {
  kAscending,
  kDescending,
  // One entry per array element; supports ARRAY_CONTAINS. Only valid as the
  // sole segment of an automatic index.
  kArrayContains,
};

struct IndexSegment {
  model::FieldPath field;
  SegmentKind kind = SegmentKind::kAscending;

  bool operator==(const IndexSegment& other) const {
    return field == other.field && kind == other.kind;
  }
};

enum class IndexState {
  kBackfilling,  // being built; not yet usable by queries
  kActive,       // serving queries; maintained by every write
  kRemoving,     // being deleted; not usable, maintained if composite
};

// Indexes apply to all collections with a given collection id (the last
// collection segment of the document name) across the database, matching
// Firestore's collection-group indexing.
struct IndexDefinition {
  IndexId index_id = 0;
  std::string collection_id;
  std::vector<IndexSegment> segments;
  IndexState state = IndexState::kActive;
  bool automatic = false;
  // Strong-read timestamp from which the index holds every document's
  // entries: a query reading below it must not plan on it. 0 for automatic
  // indexes, which exist before any document has their field.
  spanner::Timestamp active_since = 0;

  std::string DebugString() const;
};

}  // namespace firestore::index

#endif  // FIRESTORE_INDEX_INDEX_DEFINITION_H_
