// Read path of the Firestore Backend: single-document gets and queries,
// strongly consistent or at a recent timestamp, with security rules and
// billing (paper §IV-D3).

#ifndef FIRESTORE_BACKEND_READ_SERVICE_H_
#define FIRESTORE_BACKEND_READ_SERVICE_H_

#include <optional>
#include <string>

#include "backend/billing.h"
#include "common/status.h"
#include "firestore/index/catalog.h"
#include "firestore/query/executor.h"
#include "firestore/query/query.h"
#include "firestore/rules/rules.h"
#include "spanner/database.h"

namespace firestore::backend {

struct RunQueryResult {
  query::QueryResult result;
  spanner::Timestamp read_ts = 0;  // snapshot the query observed
  std::string plan_description;
};

struct RunCountResult {
  int64_t count = 0;
  query::QueryStats stats;
  spanner::Timestamp read_ts = 0;
};

struct RunAggregateResult {
  query::AggregateResult aggregate;
  spanner::Timestamp read_ts = 0;
};

class ReadService {
 public:
  explicit ReadService(spanner::Database* spanner) : spanner_(spanner) {}

  void set_billing(BillingLedger* billing) { billing_ = billing; }

  // Fetches one document at `read_ts` (0 = strong read at the current
  // timestamp). Rules (if provided) authorize a kGet access.
  StatusOr<std::optional<model::Document>> GetDocument(
      const std::string& database_id, const model::ResourcePath& name,
      spanner::Timestamp read_ts = 0,
      const rules::RuleSet* rules = nullptr,
      const rules::AuthContext* auth = nullptr);

  // Plans and executes `q` at `read_ts` (0 = strong). Rules (if provided)
  // authorize a kList access against the queried collection. Also used by
  // the Frontend to obtain a real-time query's initial snapshot.
  StatusOr<RunQueryResult> RunQuery(const std::string& database_id,
                                    index::IndexCatalog& catalog,
                                    const query::Query& q,
                                    spanner::Timestamp read_ts = 0,
                                    const rules::RuleSet* rules = nullptr,
                                    const rules::AuthContext* auth = nullptr);

  // COUNT aggregation over a query (paper §VIII future work). Billed by
  // index rows scanned, preserving pay-as-you-go semantics.
  StatusOr<RunCountResult> RunCountQuery(const std::string& database_id,
                                         index::IndexCatalog& catalog,
                                         const query::Query& q,
                                         spanner::Timestamp read_ts = 0);

  // SUM / AVG over a numeric field of the query's results. If the query has
  // no filter, order, limit, offset or cursor, it is transparently ordered
  // by the aggregated field so the values decode straight from index keys
  // (no document fetches).
  StatusOr<RunAggregateResult> RunSumQuery(const std::string& database_id,
                                           index::IndexCatalog& catalog,
                                           const query::Query& q,
                                           const model::FieldPath& field,
                                           spanner::Timestamp read_ts = 0);

  // Per-RPC work cap: queries stop with partial results after this many
  // index rows (0 = unlimited; paper §IV-C).
  void set_max_rows_per_rpc(int64_t cap) { max_rows_per_rpc_ = cap; }

  // Query execution within a transaction (locking reads, paper §IV-D3).
  StatusOr<query::QueryResult> RunQueryInTransaction(
      const std::string& database_id, index::IndexCatalog& catalog,
      const query::Query& q, spanner::ReadWriteTransaction& txn);

 private:
  StatusOr<std::optional<model::Document>> ReadDocumentAt(
      const std::string& database_id, const model::ResourcePath& name,
      spanner::Timestamp read_ts) const;

  spanner::Database* spanner_;
  BillingLedger* billing_ = nullptr;
  int64_t max_rows_per_rpc_ = 0;
};

}  // namespace firestore::backend

#endif  // FIRESTORE_BACKEND_READ_SERVICE_H_
