// Query-planner A/B comparison harness (paper §VI): "We twice rewrote the
// Firestore query planner. These rewrites were extensively tested with A/B
// comparison of query execution to confirm zero customer impact before
// rollout."
//
// ABCompareQuery runs a query twice — through the index planner, and
// through a reference evaluator that brute-force scans the collection group
// and applies the query semantics directly — and diffs the results. Any
// divergence is a planner or executor bug.

#ifndef FIRESTORE_QUERY_AB_COMPARE_H_
#define FIRESTORE_QUERY_AB_COMPARE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "firestore/query/executor.h"

namespace firestore::query {

struct ABReport {
  bool match = true;
  // Human-readable divergences (missing/extra/misordered documents).
  std::vector<std::string> divergences;
  size_t result_size = 0;
  std::string plan_description;
};

// Reference evaluation: scans every document of the database (any
// collection, any depth) and answers with Query::Evaluate, never touching an
// index. Slow and always correct.
StatusOr<std::vector<model::Document>> ReferenceEvaluate(
    RowReader& reader, std::string_view database_id, const Query& q);

// Plans and executes `q`, then diffs against ReferenceEvaluate.
StatusOr<ABReport> ABCompareQuery(const index::CatalogSnapshot& catalog,
                                  RowReader& reader,
                                  std::string_view database_id,
                                  const Query& q);

}  // namespace firestore::query

#endif  // FIRESTORE_QUERY_AB_COMPARE_H_
