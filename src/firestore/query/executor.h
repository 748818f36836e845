// Query executor (paper §IV-D3): "executes all queries using either a
// linear scan over a range of a single secondary index in the Spanner
// IndexEntries table, or a join of several such secondary indexes, followed
// by lookup of the corresponding documents in the Entities table, with no
// in-memory sorting, filtering, etc."

#ifndef FIRESTORE_QUERY_EXECUTOR_H_
#define FIRESTORE_QUERY_EXECUTOR_H_

#include <string_view>
#include <vector>

#include "common/status.h"
#include "firestore/model/document.h"
#include "firestore/query/planner.h"
#include "firestore/query/row_reader.h"

namespace firestore::query {

struct QueryStats {
  int64_t index_rows_scanned = 0;
  int64_t entities_fetched = 0;
  int64_t seeks = 0;
};

struct QueryResult {
  std::vector<model::Document> documents;
  QueryStats stats;
  // True when the per-RPC work cap stopped the scan early (paper §IV-C:
  // "We limit ... the amount of work done for a single RPC ... Firestore
  // APIs support returning partial results"). Resume by re-issuing the
  // query with Query::StartAfterDoc(documents.back()).
  bool reached_scan_limit = false;
};

struct ExecOptions {
  // Stop after examining this many index/entity rows (0 = unlimited).
  int64_t max_index_rows = 0;
};

// Runs `plan` for `query`. Documents come back in the plan's order (the
// normalized order-by, then name), already offset/limited/projected.
//
// Every candidate document fetched from Entities is re-verified against the
// query predicate; this keeps execution correct for multi-filter fields and
// guards the index-consistency invariant.
StatusOr<QueryResult> ExecuteQuery(RowReader& reader,
                                   std::string_view database_id,
                                   const Query& query, const QueryPlan& plan,
                                   ExecOptions options = {});

struct CountResult {
  int64_t count = 0;
  QueryStats stats;
};

// COUNT aggregation (paper §VIII future work): counts the query's results
// from index entries alone, without fetching a single document — "a COUNT
// query returns a single value but may count millions of documents", so the
// cost (and billing) is driven by stats.index_rows_scanned, not result
// size. Honors the query's offset and limit.
StatusOr<CountResult> ExecuteCountQuery(RowReader& reader,
                                        std::string_view database_id,
                                        const Query& query,
                                        const QueryPlan& plan);

// SUM/AVG aggregation over a numeric field. Documents whose field is
// missing or non-numeric are ignored (Firestore aggregate semantics); the
// result is integral only if every participating value was an integer.
//
// When the plan's single scan carries the field as its first order-suffix
// component (arrange this by ordering the query on the field), values are
// decoded directly from the index keys — no document fetches at all.
// Otherwise documents are fetched and the field read.
struct AggregateResult {
  int64_t count = 0;  // documents that contributed a numeric value
  bool is_integer = true;
  int64_t sum_integer = 0;
  double sum_double = 0;
  QueryStats stats;

  double Sum() const {
    return is_integer ? static_cast<double>(sum_integer) : sum_double;
  }
  double Avg() const {
    return count == 0 ? 0 : Sum() / static_cast<double>(count);
  }
};

StatusOr<AggregateResult> ExecuteSumQuery(RowReader& reader,
                                          std::string_view database_id,
                                          const Query& query,
                                          const QueryPlan& plan,
                                          const model::FieldPath& field);

}  // namespace firestore::query

#endif  // FIRESTORE_QUERY_EXECUTOR_H_
