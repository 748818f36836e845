#include "backend/validation.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/bytes.h"
#include "firestore/codec/document_codec.h"
#include "firestore/codec/ordered_code.h"
#include "firestore/index/extractor.h"
#include "firestore/index/layout.h"

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
  std::set<std::string> expected;
  std::string start = index::EntityKeyPrefixForDatabase(database_id);
  std::string limit = PrefixSuccessor(start);
  std::string cursor = start;
  while (true) {
    ASSIGN_OR_RETURN(std::vector<spanner::ScanRow> rows,
                     spanner_->SnapshotScan(index::kEntitiesTable, cursor,
                                            limit, snapshot_ts, 256));
    if (rows.empty()) break;
    for (const spanner::ScanRow& row : rows) {
      ++report.documents_checked;
      StatusOr<model::Document> doc = codec::ParseDocument(row.value);
      if (!doc.ok() || !doc->Validate().ok()) {
        report.corrupt_documents.push_back(row.key);
        continue;
      }
      for (std::string& key :
           index::ComputeIndexEntries(catalog, database_id, *doc)) {
        if (excluded(key)) continue;
        expected.insert(std::move(key));
      }
    }
    cursor = KeySuccessor(rows.back().key);
  }

  // Diff against the actual IndexEntries contents.
  cursor = start;
  while (true) {
    ASSIGN_OR_RETURN(std::vector<spanner::ScanRow> rows,
                     spanner_->SnapshotScan(index::kIndexEntriesTable,
                                            cursor, limit, snapshot_ts,
                                            256));
    if (rows.empty()) break;
    for (const spanner::ScanRow& row : rows) {
      ++report.index_entries_checked;
      if (excluded(row.key)) continue;
      auto it = expected.find(row.key);
      if (it != expected.end()) {
        expected.erase(it);
      } else {
        report.orphan_entries.push_back(row.key);
      }
    }
    cursor = KeySuccessor(rows.back().key);
  }
  for (const std::string& key : expected) {
    report.missing_entries.push_back(key);
  }
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
