#include "backend/read_service.h"

#include "common/metrics.h"
#include "common/trace.h"
#include "firestore/codec/document_codec.h"
#include "firestore/index/layout.h"
#include "firestore/query/planner.h"
#include "firestore/query/row_reader.h"

namespace firestore::backend {

using model::Document;
using model::ResourcePath;
using spanner::Timestamp;

namespace {

// Plans `q` under one catalog snapshot: the current one, or, when the query
// may use automatic indexes it lacks, the one materializing them publishes.
StatusOr<query::QueryPlan> Plan(index::IndexCatalog& catalog,
                                const std::string& database_id,
                                const query::Query& q, Timestamp read_ts) {
  std::vector<index::AutoIndexKey> missing;
  StatusOr<query::QueryPlan> plan = query::PlanQuery(
      *catalog.Snapshot(), database_id, q, read_ts, &missing);
  if (missing.empty()) return plan;
  return query::PlanQuery(*catalog.MaterializeAutoIndexes(missing),
                          database_id, q, read_ts);
}

}  // namespace

StatusOr<std::optional<Document>> ReadService::ReadDocumentAt(
    const std::string& database_id, const ResourcePath& name,
    Timestamp read_ts) const {
  Timestamp version = 0;
  ASSIGN_OR_RETURN(spanner::RowValue row,
                   spanner_->SnapshotRead(
                       index::kEntitiesTable,
                       index::EntityKey(database_id, name), read_ts,
                       &version));
  return codec::DecodeEntityRow(row, version);
}

StatusOr<std::optional<Document>> ReadService::GetDocument(
    const std::string& database_id, const ResourcePath& name,
    Timestamp read_ts, const rules::RuleSet* rules,
    const rules::AuthContext* auth) {
  FS_SPAN("backend.read.get");
  FS_METRIC_COUNTER("backend.read.gets").Increment();
  if (!name.IsDocumentPath()) {
    return InvalidArgumentError("'" + name.CanonicalString() +
                                "' is not a document path");
  }
  if (read_ts == 0) read_ts = spanner_->StrongReadTimestamp();
  ASSIGN_OR_RETURN(std::optional<Document> doc,
                   ReadDocumentAt(database_id, name, read_ts));
  if (rules != nullptr) {
    rules::AccessRequest request;
    request.kind = rules::AccessKind::kGet;
    request.path = name;
    request.auth = auth != nullptr ? *auth : rules::AuthContext{};
    request.resource = doc;
    request.lookup = [this, &database_id, read_ts](const ResourcePath& p) {
      return ReadDocumentAt(database_id, p, read_ts);
    };
    RETURN_IF_ERROR(rules->Authorize(request));
  }
  if (billing_ != nullptr) billing_->RecordReads(database_id, 1);
  return doc;
}

StatusOr<RunQueryResult> ReadService::RunQuery(
    const std::string& database_id, index::IndexCatalog& catalog,
    const query::Query& q, Timestamp read_ts, const rules::RuleSet* rules,
    const rules::AuthContext* auth) {
  FS_SPAN("backend.read.query");
  FS_METRIC_COUNTER("backend.read.queries").Increment();
  if (read_ts == 0) read_ts = spanner_->StrongReadTimestamp();
  // "The execution of a non-real-time query starts by verifying the
  // security rules for the collection specified in the query" (§IV-D3).
  if (rules != nullptr) {
    rules::AccessRequest request;
    request.kind = rules::AccessKind::kList;
    // Authorize against a representative member of the collection: patterns
    // like /restaurants/{id} match with {id} bound to "*".
    request.path = q.CollectionPath().Child("*");
    request.auth = auth != nullptr ? *auth : rules::AuthContext{};
    request.lookup = [this, &database_id, read_ts](const ResourcePath& p) {
      return ReadDocumentAt(database_id, p, read_ts);
    };
    RETURN_IF_ERROR(rules->Authorize(request));
  }
  ASSIGN_OR_RETURN(query::QueryPlan plan,
                   Plan(catalog, database_id, q, read_ts));
  query::SnapshotRowReader reader(spanner_, read_ts);
  query::ExecOptions exec_options;
  exec_options.max_index_rows = max_rows_per_rpc_;
  ASSIGN_OR_RETURN(
      query::QueryResult result,
      query::ExecuteQuery(reader, database_id, q, plan, exec_options));
  if (billing_ != nullptr) {
    // Firestore bills by documents in the result set (paper §VIII).
    billing_->RecordReads(
        database_id,
        std::max<int64_t>(1,
                          static_cast<int64_t>(result.documents.size())));
  }
  RunQueryResult out;
  out.result = std::move(result);
  out.read_ts = read_ts;
  out.plan_description = plan.DebugString();
  return out;
}

StatusOr<RunCountResult> ReadService::RunCountQuery(
    const std::string& database_id, index::IndexCatalog& catalog,
    const query::Query& q, Timestamp read_ts) {
  if (read_ts == 0) read_ts = spanner_->StrongReadTimestamp();
  ASSIGN_OR_RETURN(query::QueryPlan plan,
                   Plan(catalog, database_id, q, read_ts));
  query::SnapshotRowReader reader(spanner_, read_ts);
  ASSIGN_OR_RETURN(query::CountResult counted,
                   query::ExecuteCountQuery(reader, database_id, q, plan));
  if (billing_ != nullptr) {
    // Aggregations bill by index rows examined, not result size, keeping
    // pay-as-you-go semantics for "COUNT ... may count millions of
    // documents" (paper §VIII).
    billing_->RecordReads(
        database_id,
        std::max<int64_t>(1, counted.stats.index_rows_scanned / 1000));
  }
  RunCountResult out;
  out.count = counted.count;
  out.stats = counted.stats;
  out.read_ts = read_ts;
  return out;
}

StatusOr<RunAggregateResult> ReadService::RunSumQuery(
    const std::string& database_id, index::IndexCatalog& catalog,
    const query::Query& q, const model::FieldPath& field,
    Timestamp read_ts) {
  if (read_ts == 0) read_ts = spanner_->StrongReadTimestamp();
  query::Query effective = q;
  // A filter-less, order-less query is routed onto the aggregated field's
  // index so values decode straight from keys (documents missing the field
  // have no entry there, matching aggregate semantics). Not when a limit,
  // offset or cursor selects documents: those position in the query's own
  // (name) order, which the rewrite would change. Filtered queries keep
  // their own plan; an inequality or order on the aggregated field also
  // hits the key-decoding fast path naturally.
  if (q.filters().empty() && q.order_by().empty() && q.limit() == 0 &&
      q.offset() == 0 && !q.start_cursor().has_value()) {
    effective.OrderByField(field);
  }
  ASSIGN_OR_RETURN(query::QueryPlan plan,
                   Plan(catalog, database_id, effective, read_ts));
  query::SnapshotRowReader reader(spanner_, read_ts);
  ASSIGN_OR_RETURN(
      query::AggregateResult agg,
      query::ExecuteSumQuery(reader, database_id, effective, plan, field));
  if (billing_ != nullptr) {
    billing_->RecordReads(
        database_id,
        std::max<int64_t>(1, agg.stats.index_rows_scanned / 1000));
  }
  RunAggregateResult out;
  out.aggregate = std::move(agg);
  out.read_ts = read_ts;
  return out;
}

StatusOr<query::QueryResult> ReadService::RunQueryInTransaction(
    const std::string& database_id, index::IndexCatalog& catalog,
    const query::Query& q, spanner::ReadWriteTransaction& txn) {
  // Locking reads see the latest version, where every active index is whole.
  ASSIGN_OR_RETURN(query::QueryPlan plan,
                   Plan(catalog, database_id, q, spanner::kMaxTimestamp));
  query::TransactionRowReader reader(&txn);
  ASSIGN_OR_RETURN(query::QueryResult result,
                   query::ExecuteQuery(reader, database_id, q, plan));
  if (billing_ != nullptr) {
    billing_->RecordReads(
        database_id,
        std::max<int64_t>(1,
                          static_cast<int64_t>(result.documents.size())));
  }
  return result;
}

}  // namespace firestore::backend
