#include "firestore/index/backfill.h"

#include "common/bytes.h"
#include "common/logging.h"
#include "firestore/codec/document_codec.h"
#include "firestore/index/extractor.h"
#include "firestore/index/layout.h"

namespace firestore::index {

StatusOr<IndexId> IndexBackfillService::CreateIndex(
    IndexCatalog& catalog, std::string_view database_id,
    const std::string& collection_id, std::vector<IndexSegment> segments,
    int batch_size) {
  ASSIGN_OR_RETURN(IndexId id,
                   catalog.AddCompositeIndex(collection_id,
                                             std::move(segments),
                                             IndexState::kBackfilling));
  std::shared_ptr<const CatalogSnapshot> snapshot = catalog.Snapshot();
  const IndexDefinition* def = snapshot->Find(id);
  FS_CHECK(def != nullptr);
  Status backfill = BackfillEntries(*def, database_id, batch_size);
  if (!backfill.ok()) {
    // Roll the definition back so writes stop maintaining it.
    (void)catalog.RemoveIndex(id);
    return backfill;
  }
  // Every batch has committed, so a strong read from now on sees the index
  // whole; an older read timestamp may not.
  RETURN_IF_ERROR(catalog.SetIndexState(id, IndexState::kActive,
                                        spanner_->StrongReadTimestamp()));
  return id;
}

Status IndexBackfillService::DropIndex(IndexCatalog& catalog,
                                       std::string_view database_id,
                                       IndexId index_id, int batch_size) {
  RETURN_IF_ERROR(catalog.SetIndexState(index_id, IndexState::kRemoving));
  RETURN_IF_ERROR(RemoveEntries(database_id, index_id, batch_size));
  return catalog.RemoveIndex(index_id);
}

Status IndexBackfillService::ExemptField(
    IndexCatalog& catalog, std::string_view database_id,
    const std::string& collection_id, const model::FieldPath& field,
    int batch_size) {
  catalog.AddExemption(collection_id, field);
  std::shared_ptr<const CatalogSnapshot> snapshot = catalog.Snapshot();
  const std::string canonical = field.CanonicalString();
  for (SegmentKind kind : {SegmentKind::kAscending, SegmentKind::kDescending,
                           SegmentKind::kArrayContains}) {
    if (IndexId id = snapshot->AutoIndexId(collection_id, canonical, kind)) {
      RETURN_IF_ERROR(RemoveEntries(database_id, id, batch_size));
      RETURN_IF_ERROR(catalog.RemoveIndex(id));
    }
  }
  return Status::Ok();
}

Status IndexBackfillService::BackfillEntries(const IndexDefinition& index,
                                             std::string_view database_id,
                                             int batch_size) {
  std::string start = EntityKeyPrefixForDatabase(database_id);
  const std::string limit = PrefixSuccessor(start);
  while (true) {
    // Each batch runs in its own read-write transaction so that concurrent
    // document writes conflict (and serialize) with the backfill per-row.
    auto txn = spanner_->BeginTransaction();
    ASSIGN_OR_RETURN(std::vector<spanner::ScanRow> rows,
                     txn->Scan(kEntitiesTable, start, limit, batch_size));
    if (rows.empty()) {
      txn->Abort();
      return Status::Ok();
    }
    for (const spanner::ScanRow& row : rows) {
      ASSIGN_OR_RETURN(model::Document doc,
                       codec::ParseDocument(row.value));
      for (const std::string& key :
           ComputeEntriesForIndex(index, database_id, doc)) {
        txn->Put(kIndexEntriesTable, key, "");
      }
    }
    auto commit = txn->Commit();
    if (!commit.ok()) return commit.status();
    start = KeySuccessor(rows.back().key);
  }
}

Status IndexBackfillService::RemoveEntries(std::string_view database_id,
                                           IndexId index_id, int batch_size) {
  const std::string prefix = IndexKeyPrefix(database_id, index_id);
  return spanner_->DeleteRange(kIndexEntriesTable, prefix,
                               PrefixSuccessor(prefix), batch_size);
}

}  // namespace firestore::index
