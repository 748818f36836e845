#include "firestore/query/ab_compare.h"

#include <algorithm>
#include <sstream>

#include "firestore/codec/document_codec.h"
#include "firestore/index/layout.h"
#include "firestore/query/planner.h"

namespace firestore::query {

using model::Document;

StatusOr<std::vector<Document>> ReferenceEvaluate(
    RowReader& reader, std::string_view database_id, const Query& q) {
  RETURN_IF_ERROR(q.Validate());
  // Scan every document of the database (the reference must be independent
  // of index selection, so it ignores indexes entirely).
  std::vector<Document> docs;
  RETURN_IF_ERROR(ForEachRow(
      reader, index::kEntitiesTable,
      index::EntityKeyPrefixForDatabase(database_id),
      [&](const spanner::ScanRow& row) -> Status {
        ASSIGN_OR_RETURN(std::optional<Document> doc,
                         codec::DecodeEntityRow(row.value, row.version));
        docs.push_back(std::move(*doc));
        return Status::Ok();
      }));
  return q.Evaluate(std::move(docs));
}

StatusOr<ABReport> ABCompareQuery(const index::CatalogSnapshot& catalog,
                                  RowReader& reader,
                                  std::string_view database_id,
                                  const Query& q) {
  ASSIGN_OR_RETURN(QueryPlan plan, PlanQuery(catalog, database_id, q));
  ASSIGN_OR_RETURN(QueryResult planned,
                   ExecuteQuery(reader, database_id, q, plan));
  ASSIGN_OR_RETURN(std::vector<Document> reference,
                   ReferenceEvaluate(reader, database_id, q));
  ABReport report;
  report.result_size = reference.size();
  report.plan_description = plan.DebugString();
  size_t n = std::max(planned.documents.size(), reference.size());
  for (size_t i = 0; i < n; ++i) {
    std::ostringstream os;
    if (i >= planned.documents.size()) {
      os << "missing at " << i << ": "
         << reference[i].name().CanonicalString();
    } else if (i >= reference.size()) {
      os << "extra at " << i << ": "
         << planned.documents[i].name().CanonicalString();
    } else if (!(planned.documents[i] == reference[i])) {
      os << "mismatch at " << i << ": planned "
         << planned.documents[i].ToString() << " vs reference "
         << reference[i].ToString();
    } else {
      continue;
    }
    report.match = false;
    report.divergences.push_back(os.str());
  }
  return report;
}

}  // namespace firestore::query
