// The Firestore query model (paper §III-C): projections, predicate
// comparisons with a constant, conjunctions, orders, limits, offsets. At
// most one inequality field, which must match the first sort order — these
// restrictions are what let every query be satisfied directly from
// secondary indexes.

#ifndef FIRESTORE_QUERY_QUERY_H_
#define FIRESTORE_QUERY_QUERY_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "firestore/model/document.h"
#include "firestore/model/path.h"
#include "firestore/model/value.h"

namespace firestore::query {

enum class Operator {
  kEqual,
  kLessThan,
  kLessThanOrEqual,
  kGreaterThan,
  kGreaterThanOrEqual,
  kArrayContains,
};

std::string_view OperatorToString(Operator op);

struct FieldFilter {
  model::FieldPath field;
  Operator op = Operator::kEqual;
  model::Value value;

  bool IsInequality() const {
    return op != Operator::kEqual && op != Operator::kArrayContains;
  }

  // Whether a document field value satisfies this predicate. Inequalities
  // match only values of the same type class (Firestore semantics: "> 2"
  // never returns strings).
  bool Matches(const model::Value& field_value) const;
};

struct OrderBy {
  model::FieldPath field;
  bool descending = false;

  bool operator==(const OrderBy& other) const {
    return field == other.field && descending == other.descending;
  }
};

// A pagination/resumption cursor: a position in the query's order, given by
// the normalized order-by values plus the document name. Built from a
// previously returned document (paper §IV-C: "Firestore APIs support
// returning partial results for a query as well as resuming a
// partially-executed query").
struct Cursor {
  std::vector<model::Value> order_values;  // one per NormalizedOrderBy entry
  model::ResourcePath name;
  bool inclusive = false;  // true = start at, false = start after
};

class Query {
 public:
  Query() = default;
  Query(model::ResourcePath parent, std::string collection_id)
      : parent_(std::move(parent)),
        collection_id_(std::move(collection_id)) {}

  // -- Builder-style setters --
  Query& Where(model::FieldPath field, Operator op, model::Value value);
  Query& OrderByField(model::FieldPath field, bool descending = false);
  Query& Limit(int64_t limit);
  Query& Offset(int64_t offset);
  Query& Project(std::vector<model::FieldPath> fields);

  // Pagination: resume the query after (or at) a document previously
  // returned by this query. The document supplies the cursor's order
  // values; it must contain every normalized order-by field.
  Query& StartAfterDoc(const model::Document& doc);
  Query& StartAtDoc(const model::Document& doc);

  // -- Accessors --
  const model::ResourcePath& parent() const { return parent_; }
  const std::string& collection_id() const { return collection_id_; }
  const std::vector<FieldFilter>& filters() const { return filters_; }
  const std::vector<OrderBy>& order_by() const { return order_by_; }
  int64_t limit() const { return limit_; }
  int64_t offset() const { return offset_; }
  const std::vector<model::FieldPath>& projection() const {
    return projection_;
  }
  const std::optional<Cursor>& start_cursor() const { return start_cursor_; }

  // The collection this query ranges over (parent + collection id).
  model::ResourcePath CollectionPath() const;

  // Enforces the restrictions of §III-C. Must pass before planning.
  Status Validate() const;

  // The effective sort: if an inequality exists and no explicit order names
  // its field, it is ordered first (ascending); document name is always the
  // final implicit tiebreak and is NOT included here.
  std::vector<OrderBy> NormalizedOrderBy() const;

  // Predicate check: does `doc` belong to this query's results? Checks
  // collection membership, every filter, presence of ordered fields
  // (documents missing an order-by field are excluded, as they have no index
  // entry), and that `doc` sits at or after the start cursor.
  bool Matches(const model::Document& doc) const;

  // Comparison of two matching documents under NormalizedOrderBy + name.
  int Compare(const model::Document& a, const model::Document& b) const;

  // `doc` cut down to the projected fields (name and timestamps kept); `doc`
  // itself when the query has no projection.
  model::Document ApplyProjection(model::Document doc) const;

  // The query's result over an in-memory candidate set: the candidates that
  // Match, sorted by Compare, past the offset, cut to the limit, projected.
  // Every evaluator outside the index executor answers through this.
  std::vector<model::Document> Evaluate(
      std::vector<model::Document> candidates) const;

  // Stable identity for real-time query registration and dedup.
  std::string CanonicalString() const;

 private:
  // Position of `doc` against the start cursor under NormalizedOrderBy +
  // name: negative before it, 0 at it, positive after it.
  int CompareToStartCursor(const model::Document& doc) const;

  model::ResourcePath parent_;  // empty for root-level collections
  std::string collection_id_;
  std::vector<FieldFilter> filters_;
  std::vector<OrderBy> order_by_;
  int64_t limit_ = 0;   // 0 = unlimited
  int64_t offset_ = 0;
  std::vector<model::FieldPath> projection_;
  std::optional<Cursor> start_cursor_;
};

}  // namespace firestore::query

#endif  // FIRESTORE_QUERY_QUERY_H_
