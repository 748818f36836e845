#include "backend/validation.h"

#include <set>
#include <sstream>

#include "firestore/codec/document_codec.h"
#include "firestore/codec/ordered_code.h"
#include "firestore/index/extractor.h"
#include "firestore/index/layout.h"
#include "firestore/query/row_reader.h"

namespace firestore::backend {

std::string ValidationReport::Summary() const {
  std::ostringstream os;
  os << "docs=" << documents_checked
     << " entries=" << index_entries_checked
     << " missing=" << missing_entries.size()
     << " orphans=" << orphan_entries.size()
     << " corrupt=" << corrupt_documents.size()
     << (clean() ? " [CLEAN]" : " [INCONSISTENT]");
  return os.str();
}

StatusOr<ValidationReport> DataValidationService::ValidateDatabase(
    const std::string& database_id, const index::CatalogSnapshot& catalog,
    spanner::Timestamp snapshot_ts) {
  if (snapshot_ts == 0) snapshot_ts = spanner_->StrongReadTimestamp();
  ValidationReport report;

  // Entries of indexes in flux, or newer than the catalog snapshot, are
  // excluded from strict accounting.
  auto excluded = [&](const std::string& key) {
    std::string_view rest = key;
    std::string db;
    index::IndexId id = 0;
    if (!codec::ParseBytes(&rest, &db) || !codec::ParseInt64(&rest, &id)) {
      return false;
    }
    const index::IndexDefinition* def = catalog.Find(id);
    return id >= catalog.next_id ||
           (def != nullptr && def->state != index::IndexState::kActive);
  };

  // Recompute the expected entry set from the documents.
  query::SnapshotRowReader reader(spanner_, snapshot_ts);
  const std::string prefix = index::EntityKeyPrefixForDatabase(database_id);
  std::set<std::string> expected;
  RETURN_IF_ERROR(query::ForEachRow(
      reader, index::kEntitiesTable, prefix,
      [&](const spanner::ScanRow& row) {
        ++report.documents_checked;
        StatusOr<model::Document> doc = codec::ParseDocument(row.value);
        if (!doc.ok() || !doc->Validate().ok()) {
          report.corrupt_documents.push_back(row.key);
          return Status::Ok();
        }
        for (std::string& key :
             index::ComputeIndexEntries(catalog, database_id, *doc)) {
          if (!excluded(key)) expected.insert(std::move(key));
        }
        return Status::Ok();
      }));

  // Diff against the actual IndexEntries contents.
  RETURN_IF_ERROR(query::ForEachRow(
      reader, index::kIndexEntriesTable, prefix,
      [&](const spanner::ScanRow& row) {
        ++report.index_entries_checked;
        if (!excluded(row.key) && expected.erase(row.key) == 0) {
          report.orphan_entries.push_back(row.key);
        }
        return Status::Ok();
      }));
  report.missing_entries.assign(expected.begin(), expected.end());
  return report;
}

StatusOr<ValidationReport> DataValidationService::RepairDatabase(
    const std::string& database_id, index::IndexCatalog& catalog) {
  ASSIGN_OR_RETURN(ValidationReport before,
                   ValidateDatabase(database_id, *catalog.Snapshot()));
  if (before.clean()) return before;
  auto txn = spanner_->BeginTransaction();
  for (const std::string& key : before.orphan_entries) {
    txn->Delete(index::kIndexEntriesTable, key);
  }
  for (const std::string& key : before.missing_entries) {
    txn->Put(index::kIndexEntriesTable, key, "");
  }
  for (const std::string& key : before.corrupt_documents) {
    txn->Delete(index::kEntitiesTable, key);
  }
  auto commit = txn->Commit();
  if (!commit.ok()) return commit.status();
  return ValidateDatabase(database_id, *catalog.Snapshot());
}

}  // namespace firestore::backend
