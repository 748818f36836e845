#include "firestore/index/backfill.h"

#include "common/logging.h"
#include "firestore/codec/document_codec.h"
#include "firestore/index/extractor.h"
#include "firestore/index/layout.h"

namespace firestore::index {

StatusOr<IndexId> IndexBackfillService::CreateIndex(
    IndexCatalog& catalog, std::string_view database_id,
    const std::string& collection_id, std::vector<IndexSegment> segments) {
  ASSIGN_OR_RETURN(IndexId id,
                   catalog.AddCompositeIndex(collection_id,
                                             std::move(segments),
                                             IndexState::kBackfilling));
  std::shared_ptr<const CatalogSnapshot> snapshot = catalog.Snapshot();
  const IndexDefinition* def = snapshot->Find(id);
  FS_CHECK(def != nullptr);
  // Each batch runs in its own read-write transaction so that concurrent
  // document writes conflict (and serialize) with the backfill per-row.
  Status backfill = spanner_->ForEachBatch(
      kEntitiesTable, EntityKeyPrefixForDatabase(database_id),
      [&](spanner::ReadWriteTransaction& txn,
          const std::vector<spanner::ScanRow>& rows) -> Status {
        for (const spanner::ScanRow& row : rows) {
          // The scan read the row before it locked it, so a commit it
          // waited on may have changed or deleted it since: read it again
          // under the lock.
          ASSIGN_OR_RETURN(spanner::RowValue value,
                           txn.Read(kEntitiesTable, row.key));
          if (!value.has_value()) continue;
          ASSIGN_OR_RETURN(model::Document doc, codec::ParseDocument(*value));
          for (std::string& key :
               ComputeEntriesForIndex(*def, database_id, doc)) {
            txn.Put(kIndexEntriesTable, std::move(key), "");
          }
        }
        return Status::Ok();
      });
  if (!backfill.ok()) {
    // Roll back: the batches that committed wrote entries.
    (void)RemoveIndexes(catalog, database_id, {id});
    return backfill;
  }
  // Every batch has committed, so a strong read from now on sees the index
  // whole; an older read timestamp may not.
  RETURN_IF_ERROR(catalog.SetIndexState(id, IndexState::kActive,
                                        spanner_->StrongReadTimestamp()));
  return id;
}

Status IndexBackfillService::RemoveIndexes(IndexCatalog& catalog,
                                           std::string_view database_id,
                                           const std::vector<IndexId>& ids) {
  for (IndexId id : ids) {
    RETURN_IF_ERROR(catalog.SetIndexState(id, IndexState::kRemoving));
  }
  for (IndexId id : ids) {
    RETURN_IF_ERROR(spanner_->DeletePrefix(kIndexEntriesTable,
                                           IndexKeyPrefix(database_id, id)));
    RETURN_IF_ERROR(catalog.RemoveIndex(id));
  }
  return Status::Ok();
}

}  // namespace firestore::index
