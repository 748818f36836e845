#include "firestore/query/query.h"

#include <algorithm>
#include <sstream>

namespace firestore::query {

using model::Document;
using model::FieldPath;
using model::ResourcePath;
using model::Value;
using model::ValueType;

std::string_view OperatorToString(Operator op) {
  switch (op) {
    case Operator::kEqual:
      return "==";
    case Operator::kLessThan:
      return "<";
    case Operator::kLessThanOrEqual:
      return "<=";
    case Operator::kGreaterThan:
      return ">";
    case Operator::kGreaterThanOrEqual:
      return ">=";
    case Operator::kArrayContains:
      return "array-contains";
  }
  return "?";
}

bool FieldFilter::Matches(const Value& field_value) const {
  switch (op) {
    case Operator::kEqual:
      return field_value.Compare(value) == 0;
    case Operator::kArrayContains: {
      if (field_value.type() != ValueType::kArray) return false;
      for (const Value& element : field_value.array_value()) {
        if (element.Compare(value) == 0) return true;
      }
      return false;
    }
    default:
      break;
  }
  // Inequalities only compare within the same type class.
  if (field_value.type() != value.type()) return false;
  int c = field_value.Compare(value);
  switch (op) {
    case Operator::kLessThan:
      return c < 0;
    case Operator::kLessThanOrEqual:
      return c <= 0;
    case Operator::kGreaterThan:
      return c > 0;
    case Operator::kGreaterThanOrEqual:
      return c >= 0;
    default:
      return false;
  }
}

Query& Query::Where(FieldPath field, Operator op, Value value) {
  filters_.push_back({std::move(field), op, std::move(value)});
  return *this;
}

Query& Query::OrderByField(FieldPath field, bool descending) {
  order_by_.push_back({std::move(field), descending});
  return *this;
}

Query& Query::Limit(int64_t limit) {
  limit_ = limit;
  return *this;
}

Query& Query::Offset(int64_t offset) {
  offset_ = offset;
  return *this;
}

Query& Query::Project(std::vector<FieldPath> fields) {
  projection_ = std::move(fields);
  return *this;
}

namespace {

Cursor CursorFromDoc(const Query& q, const Document& doc, bool inclusive) {
  Cursor cursor;
  for (const OrderBy& o : q.NormalizedOrderBy()) {
    std::optional<Value> v = doc.GetField(o.field);
    // Validate() rejects cursors with missing values (null marker).
    cursor.order_values.push_back(v.has_value() ? *v : Value::Null());
  }
  cursor.name = doc.name();
  cursor.inclusive = inclusive;
  return cursor;
}

}  // namespace

Query& Query::StartAfterDoc(const Document& doc) {
  start_cursor_ = CursorFromDoc(*this, doc, /*inclusive=*/false);
  return *this;
}

Query& Query::StartAtDoc(const Document& doc) {
  start_cursor_ = CursorFromDoc(*this, doc, /*inclusive=*/true);
  return *this;
}

ResourcePath Query::CollectionPath() const {
  return parent_.Child(collection_id_);
}

Status Query::Validate() const {
  if (collection_id_.empty()) {
    return InvalidArgumentError("query needs a collection id");
  }
  if (!parent_.empty() && !parent_.IsDocumentPath()) {
    return InvalidArgumentError("query parent must be a document path");
  }
  if (limit_ < 0 || offset_ < 0) {
    return InvalidArgumentError("limit/offset must be non-negative");
  }
  // At most one inequality field.
  const FieldPath* inequality_field = nullptr;
  for (const FieldFilter& f : filters_) {
    if (!f.IsInequality()) continue;
    if (inequality_field != nullptr && !(*inequality_field == f.field)) {
      return InvalidArgumentError(
          "queries support at most one inequality field ('" +
          inequality_field->CanonicalString() + "' and '" +
          f.field.CanonicalString() + "')");
    }
    inequality_field = &f.field;
  }
  // The inequality field must match the first sort order.
  if (inequality_field != nullptr && !order_by_.empty() &&
      !(order_by_[0].field == *inequality_field)) {
    return InvalidArgumentError(
        "the first order-by field must match the inequality field '" +
        inequality_field->CanonicalString() + "'");
  }
  // No duplicate order-by fields.
  for (size_t i = 0; i < order_by_.size(); ++i) {
    for (size_t j = i + 1; j < order_by_.size(); ++j) {
      if (order_by_[i].field == order_by_[j].field) {
        return InvalidArgumentError("duplicate order-by field '" +
                                    order_by_[i].field.CanonicalString() +
                                    "'");
      }
    }
  }
  // Cursor must carry exactly one value per normalized order component
  // (StartAfterDoc/StartAtDoc must be applied after filters and orders).
  if (start_cursor_.has_value()) {
    if (start_cursor_->order_values.size() != NormalizedOrderBy().size()) {
      return InvalidArgumentError(
          "cursor does not match the query's order-by (set the cursor after "
          "filters and orders)");
    }
    if (!start_cursor_->name.IsDocumentPath()) {
      return InvalidArgumentError("cursor requires a document name");
    }
  }
  return Status::Ok();
}

namespace {

// The field an inequality filter orders by when no explicit order-by is
// given (Validate() guarantees the first explicit order matches otherwise);
// nullptr when nothing is implied.
const FieldPath* ImpliedOrderField(const std::vector<FieldFilter>& filters,
                                   const std::vector<OrderBy>& order_by) {
  if (!order_by.empty()) return nullptr;
  for (const FieldFilter& f : filters) {
    if (f.IsInequality()) return &f.field;
  }
  return nullptr;
}

// One component of Compare(). Matches() guarantees presence; be defensive
// anyway: a document missing the field sorts before one that has it.
int CompareOn(const FieldPath& field, bool descending, const Document& a,
              const Document& b) {
  const Value* va = a.FindField(field);
  const Value* vb = b.FindField(field);
  if (va == nullptr || vb == nullptr) {
    return static_cast<int>(va != nullptr) - static_cast<int>(vb != nullptr);
  }
  int c = va->Compare(*vb);
  return descending ? -c : c;
}

}  // namespace

std::vector<OrderBy> Query::NormalizedOrderBy() const {
  std::vector<OrderBy> result = order_by_;
  if (const FieldPath* implied = ImpliedOrderField(filters_, order_by_)) {
    result.push_back({*implied, false});
  }
  return result;
}

bool Query::Matches(const Document& doc) const {
  // Collection membership, compared in place: the name is parent_, then
  // collection_id_, then one document id.
  const ResourcePath& name = doc.name();
  if (name.size() != parent_.size() + 2 || !parent_.IsPrefixOf(name) ||
      name.segments()[parent_.size()] != collection_id_) {
    return false;
  }
  for (const FieldFilter& f : filters_) {
    const Value* v = doc.FindField(f.field);
    if (v == nullptr || !f.Matches(*v)) return false;
  }
  // Ordered fields must be present. An implied order field is an
  // inequality filter's field, which the loop above already required.
  for (const OrderBy& o : order_by_) {
    if (doc.FindField(o.field) == nullptr) return false;
  }
  if (start_cursor_.has_value()) {
    int c = CompareToStartCursor(doc);
    if (c < 0 || (c == 0 && !start_cursor_->inclusive)) return false;
  }
  return true;
}

int Query::CompareToStartCursor(const Document& doc) const {
  const Cursor& cursor = *start_cursor_;
  const std::vector<OrderBy> order = NormalizedOrderBy();
  for (size_t i = 0; i < order.size(); ++i) {
    const Value* v = doc.FindField(order[i].field);
    if (v == nullptr) return -1;  // no position in the order
    int c = v->Compare(cursor.order_values[i]);
    if (c != 0) return order[i].descending ? -c : c;
  }
  return doc.name().Compare(cursor.name);
}

int Query::Compare(const Document& a, const Document& b) const {
  if (const FieldPath* implied = ImpliedOrderField(filters_, order_by_)) {
    int c = CompareOn(*implied, /*descending=*/false, a, b);
    if (c != 0) return c;
  }
  for (const OrderBy& o : order_by_) {
    int c = CompareOn(o.field, o.descending, a, b);
    if (c != 0) return c;
  }
  return a.name().Compare(b.name());
}

Document Query::ApplyProjection(Document doc) const {
  if (projection_.empty()) return doc;
  Document projected(doc.name(), {});
  projected.set_create_time(doc.create_time());
  projected.set_update_time(doc.update_time());
  for (const FieldPath& f : projection_) {
    std::optional<Value> v = doc.GetField(f);
    if (v.has_value()) projected.SetField(f, std::move(*v));
  }
  return projected;
}

std::vector<Document> Query::Evaluate(std::vector<Document> candidates) const {
  std::erase_if(candidates, [&](const Document& d) { return !Matches(d); });
  std::sort(candidates.begin(), candidates.end(),
            [&](const Document& a, const Document& b) {
              return Compare(a, b) < 0;
            });
  candidates.erase(candidates.begin(),
                   candidates.begin() +
                       std::min<size_t>(offset_, candidates.size()));
  if (limit_ > 0 && static_cast<int64_t>(candidates.size()) > limit_) {
    candidates.resize(limit_);
  }
  // Projection comes last: filters, order and cursor need the full document.
  for (Document& doc : candidates) doc = ApplyProjection(std::move(doc));
  return candidates;
}

std::string Query::CanonicalString() const {
  std::ostringstream os;
  os << "select ";
  if (projection_.empty()) {
    os << "*";
  } else {
    for (size_t i = 0; i < projection_.size(); ++i) {
      if (i > 0) os << ", ";
      os << projection_[i].CanonicalString();
    }
  }
  os << " from " << CollectionPath().CanonicalString();
  for (size_t i = 0; i < filters_.size(); ++i) {
    os << (i == 0 ? " where " : " and ") << filters_[i].field.CanonicalString()
       << " " << OperatorToString(filters_[i].op) << " "
       << filters_[i].value.ToString();
  }
  if (!order_by_.empty()) {
    os << " order by ";
    for (size_t i = 0; i < order_by_.size(); ++i) {
      if (i > 0) os << ", ";
      os << order_by_[i].field.CanonicalString()
         << (order_by_[i].descending ? " desc" : " asc");
    }
  }
  if (limit_ > 0) os << " limit " << limit_;
  if (offset_ > 0) os << " offset " << offset_;
  return os.str();
}

}  // namespace firestore::query
