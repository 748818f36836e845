// Periodic data-validation jobs (paper §VI): "we rely both on Spanner's
// data integrity guarantees for data at rest, and periodic data validation
// jobs at both the Spanner and Firestore layers to verify the correctness
// of data and consistency of indexes."
//
// The validator recomputes, from the Entities table and the index catalog,
// the exact set of IndexEntries rows that should exist for a database and
// diffs it against the actual table contents. It also verifies that every
// stored document parses and passes its own validation.

#ifndef FIRESTORE_BACKEND_VALIDATION_H_
#define FIRESTORE_BACKEND_VALIDATION_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "firestore/index/catalog.h"
#include "spanner/database.h"

namespace firestore::backend {

struct ValidationReport {
  int64_t documents_checked = 0;
  int64_t index_entries_checked = 0;
  // Raw Spanner keys of index rows that should exist but do not.
  std::vector<std::string> missing_entries;
  // Raw keys of index rows present in the table with no justifying document.
  std::vector<std::string> orphan_entries;
  // Raw Entities keys whose payload fails to parse or validate.
  std::vector<std::string> corrupt_documents;

  bool clean() const {
    return missing_entries.empty() && orphan_entries.empty() &&
           corrupt_documents.empty();
  }
  std::string Summary() const;
};

class DataValidationService {
 public:
  explicit DataValidationService(spanner::Database* spanner)
      : spanner_(spanner) {}

  // Validates one database at a consistent snapshot (0 = current strong
  // timestamp) against one catalog snapshot. Entries of indexes in
  // kBackfilling / kRemoving states, and of indexes newer than `catalog`,
  // are excluded from the orphan/missing accounting (they are expected to be
  // in flux).
  StatusOr<ValidationReport> ValidateDatabase(
      const std::string& database_id, const index::CatalogSnapshot& catalog,
      spanner::Timestamp snapshot_ts = 0);

  // Remediation: removes orphan index entries, re-creates missing ones, and
  // deletes unparseable Entities rows (their stale entries are orphans and
  // are removed with them). Returns the post-repair validation report.
  StatusOr<ValidationReport> RepairDatabase(const std::string& database_id,
                                            index::IndexCatalog& catalog);

 private:
  spanner::Database* spanner_;
};

}  // namespace firestore::backend

#endif  // FIRESTORE_BACKEND_VALIDATION_H_
