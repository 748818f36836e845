// Background index backfill / backremoval service (paper §IV-D1): "a
// background service that receives index change requests, scans the Entities
// table for all affected documents, makes the required IndexEntries row
// additions or removals in Spanner, and finally marks the index change as
// complete."
//
// A drop, an exemption and a failed backfill's rollback all remove indexes
// the same way (RemoveIndexes), so a rolled-back backfill leaves nothing.
// Concurrent writes stay conformant because the write path maintains entries
// for every composite index in a maintained state (kBackfilling / kRemoving
// included).

#ifndef FIRESTORE_INDEX_BACKFILL_H_
#define FIRESTORE_INDEX_BACKFILL_H_

#include <string_view>
#include <vector>

#include "common/status.h"
#include "firestore/index/catalog.h"
#include "spanner/database.h"

namespace firestore::index {

class IndexBackfillService {
 public:
  explicit IndexBackfillService(spanner::Database* spanner)
      : spanner_(spanner) {}

  // Creates a composite index end-to-end: registers it as kBackfilling,
  // scans the database's Entities rows in batches, writes the IndexEntries
  // rows transactionally, then activates the index as of the current strong
  // read timestamp (queries reading earlier do not use it). Returns the new
  // id. If the backfill fails, the index is removed again.
  StatusOr<IndexId> CreateIndex(IndexCatalog& catalog,
                                std::string_view database_id,
                                const std::string& collection_id,
                                std::vector<IndexSegment> segments);

  // Deletes an index end-to-end.
  Status DropIndex(IndexCatalog& catalog, std::string_view database_id,
                   IndexId index_id) {
    return RemoveIndexes(catalog, database_id, {index_id});
  }

  // Exempts a field from automatic indexing, which stops queries using its
  // automatic indexes at once, then removes those indexes.
  Status ExemptField(IndexCatalog& catalog, std::string_view database_id,
                     const std::string& collection_id,
                     const model::FieldPath& field) {
    return RemoveIndexes(catalog, database_id,
                         catalog.AddExemption(collection_id, field));
  }

 private:
  // Marks the indexes kRemoving (queries stop using them), deletes their
  // entries, then erases the definitions.
  Status RemoveIndexes(IndexCatalog& catalog, std::string_view database_id,
                       const std::vector<IndexId>& ids);

  spanner::Database* spanner_;
};

}  // namespace firestore::index

#endif  // FIRESTORE_INDEX_BACKFILL_H_
