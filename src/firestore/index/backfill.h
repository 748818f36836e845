// Background index backfill / backremoval service (paper §IV-D1): "a
// background service that receives index change requests, scans the Entities
// table for all affected documents, makes the required IndexEntries row
// additions or removals in Spanner, and finally marks the index change as
// complete."
//
// Concurrent writes stay conformant because the write path maintains entries
// for every index in a maintained state (kBackfilling / kRemoving included).

#ifndef FIRESTORE_INDEX_BACKFILL_H_
#define FIRESTORE_INDEX_BACKFILL_H_

#include <string_view>

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
  // id.
  StatusOr<IndexId> CreateIndex(IndexCatalog& catalog,
                                std::string_view database_id,
                                const std::string& collection_id,
                                std::vector<IndexSegment> segments,
                                int batch_size = 128);

  // Deletes an index end-to-end: marks it kRemoving (writes keep it
  // conformant), removes its entries in batches, drops the definition.
  Status DropIndex(IndexCatalog& catalog, std::string_view database_id,
                   IndexId index_id, int batch_size = 128);

  // Exempts a field from automatic indexing, which stops queries using its
  // automatic indexes at once, then removes those indexes and their entries.
  Status ExemptField(IndexCatalog& catalog, std::string_view database_id,
                     const std::string& collection_id,
                     const model::FieldPath& field, int batch_size = 128);

 private:
  // Scans Entities for `database_id` and writes each document's entries for
  // `index`, batch_size documents per transaction.
  Status BackfillEntries(const IndexDefinition& index,
                         std::string_view database_id, int batch_size);

  // Deletes every IndexEntries row of `index_id`, batch_size per txn.
  Status RemoveEntries(std::string_view database_id, IndexId index_id,
                       int batch_size);

  spanner::Database* spanner_;
};

}  // namespace firestore::index

#endif  // FIRESTORE_INDEX_BACKFILL_H_
