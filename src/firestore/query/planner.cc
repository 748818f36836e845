#include "firestore/query/planner.h"

#include <algorithm>
#include <sstream>

#include "common/bytes.h"
#include "common/logging.h"
#include "firestore/codec/value_codec.h"
#include "firestore/index/layout.h"

namespace firestore::query {

using index::IndexDefinition;
using index::IndexSegment;
using index::SegmentKind;
using model::FieldPath;
using model::Value;

namespace {

// Relative key bounds within an index, appended after the equality prefix.
struct SuffixBounds {
  std::string start;  // empty = unbounded below
  std::string limit;  // empty = unbounded above
};

char FirstTagByte(const Value& v) { return codec::EncodeValueAsc(v)[0]; }

// Bounds constraining the first order-suffix component to the inequality
// filters (and the value's type class — "> 2" must not return strings).
SuffixBounds ComputeOrderFieldBounds(
    bool descending, const std::vector<const FieldFilter*>& inequalities) {
  SuffixBounds bounds;
  auto raise_start = [&](std::string candidate) {
    if (candidate > bounds.start) bounds.start = std::move(candidate);
  };
  auto lower_limit = [&](std::string candidate) {
    if (bounds.limit.empty() || candidate < bounds.limit) {
      bounds.limit = std::move(candidate);
    }
  };
  for (const FieldFilter* f : inequalities) {
    char tag = FirstTagByte(f->value);
    if (!descending) {
      std::string enc = codec::EncodeValueAsc(f->value);
      // Type class range: [tag, tag+1).
      raise_start(std::string(1, tag));
      lower_limit(std::string(1, static_cast<char>(tag + 1)));
      switch (f->op) {
        case Operator::kGreaterThan:
          raise_start(PrefixSuccessor(enc));
          break;
        case Operator::kGreaterThanOrEqual:
          raise_start(enc);
          break;
        case Operator::kLessThan:
          lower_limit(enc);
          break;
        case Operator::kLessThanOrEqual:
          lower_limit(PrefixSuccessor(enc));
          break;
        default:
          break;
      }
    } else {
      std::string enc;
      codec::AppendValueDesc(enc, f->value);
      // Inverted class range: first byte of a descending encoding of class
      // `tag` is ~tag.
      char inv = static_cast<char>(~static_cast<unsigned char>(tag));
      raise_start(std::string(1, inv));
      lower_limit(std::string(
          1, static_cast<char>(static_cast<unsigned char>(inv) + 1)));
      switch (f->op) {
        case Operator::kGreaterThan:  // larger values sort first
          lower_limit(enc);
          break;
        case Operator::kGreaterThanOrEqual:
          lower_limit(PrefixSuccessor(enc));
          break;
        case Operator::kLessThan:
          raise_start(PrefixSuccessor(enc));
          break;
        case Operator::kLessThanOrEqual:
          raise_start(enc);
          break;
        default:
          break;
      }
    }
  }
  return bounds;
}

// True if index segments [eq_count..] equal the order suffix exactly.
bool TailMatchesOrder(const IndexDefinition& def, size_t eq_count,
                      const std::vector<OrderBy>& order) {
  if (def.segments.size() != eq_count + order.size()) return false;
  for (size_t i = 0; i < order.size(); ++i) {
    const IndexSegment& seg = def.segments[eq_count + i];
    if (!(seg.field == order[i].field)) return false;
    SegmentKind want =
        order[i].descending ? SegmentKind::kDescending : SegmentKind::kAscending;
    if (seg.kind != want) return false;
  }
  return true;
}

}  // namespace

std::string QueryPlan::DebugString() const {
  std::string out;
  if (scans.size() > 1) out.append("zigzag-join(");
  for (size_t i = 0; i < scans.size(); ++i) {
    if (i > 0) out.append(", ");
    out.append(scans[i].description);
  }
  if (scans.size() > 1) out.push_back(')');
  return out;
}

StatusOr<QueryPlan> PlanQuery(const index::CatalogSnapshot& catalog,
                              std::string_view database_id,
                              const Query& query, spanner::Timestamp read_ts,
                              std::vector<index::AutoIndexKey>* missing) {
  RETURN_IF_ERROR(query.Validate());

  const std::vector<OrderBy> order = query.NormalizedOrderBy();
  const std::string& collection = query.collection_id();

  // Partition filters.
  std::vector<const FieldFilter*> equalities;     // kEqual
  std::vector<const FieldFilter*> contains;       // kArrayContains
  std::vector<const FieldFilter*> inequalities;   // bounds on order[0].field
  for (const FieldFilter& f : query.filters()) {
    switch (f.op) {
      case Operator::kEqual:
        equalities.push_back(&f);
        break;
      case Operator::kArrayContains:
        contains.push_back(&f);
        break;
      default:
        inequalities.push_back(&f);
        break;
    }
  }

  // No filters and no ordering: a range of Entities, whose keys are
  // bytes(database) + the name-ordered path encoding, so the suffix past the
  // database prefix is the document name alone.
  if (equalities.empty() && contains.empty() && inequalities.empty() &&
      order.empty()) {
    IndexScan scan;
    scan.table = index::kEntitiesTable;
    scan.description = "collection-scan(Entities)";
    scan.prefix_len = index::EntityKeyPrefixForDatabase(database_id).size();
    scan.start_key = index::EntityKeyPrefixForCollection(
        database_id, query.CollectionPath());
    scan.limit_key = PrefixSuccessor(scan.start_key);
    if (query.start_cursor().has_value()) {
      const Cursor& cursor = *query.start_cursor();
      std::string at = index::EntityKey(database_id, cursor.name);
      if (!cursor.inclusive) at = KeySuccessor(at);
      scan.start_key = std::max(scan.start_key, at);
    }
    QueryPlan plan;
    plan.scans.push_back(std::move(scan));
    return plan;
  }

  if (!contains.empty() && !order.empty()) {
    return FailedPreconditionError(
        "array-contains cannot be combined with inequality or order-by; "
        "this build supports array-contains via single-field indexes only");
  }

  // Distinct equality fields to cover (several filters on one field are
  // planned once and re-verified during execution).
  std::vector<FieldPath> uncovered;
  for (const FieldFilter* f : equalities) {
    if (std::find(uncovered.begin(), uncovered.end(), f->field) ==
        uncovered.end()) {
      uncovered.push_back(f->field);
    }
  }

  // Candidates: the collection's active indexes that are whole at
  // `read_ts`. Every materialized automatic index is among them; the ones
  // the query may use but the snapshot lacks are reported, not planned.
  const std::vector<const IndexDefinition*> candidates =
      catalog.ActiveIndexes(collection, read_ts);
  bool lacking = false;
  auto find_auto = [&](const FieldPath& field,
                       SegmentKind kind) -> const IndexDefinition* {
    const std::string canonical = field.CanonicalString();
    if (catalog.IsExempted(collection, canonical)) return nullptr;
    index::IndexId id = catalog.AutoIndexId(collection, canonical, kind);
    if (id == 0 && missing != nullptr) {
      missing->push_back({collection, field, kind});
    }
    lacking = lacking || id == 0;
    // Only an active index serves a query, not one a drop is removing.
    const IndexDefinition* def = catalog.Find(id);
    return std::find(candidates.begin(), candidates.end(), def) !=
                   candidates.end()
               ? def
               : nullptr;
  };
  if (order.empty()) {
    for (const FieldPath& f : uncovered) {
      find_auto(f, SegmentKind::kAscending);
    }
  } else if (order.size() == 1) {
    // Joined scans each need suffix == order; the pure order-provider index
    // is a candidate alongside composites (and alone with no equalities).
    find_auto(order[0].field, order[0].descending ? SegmentKind::kDescending
                                                  : SegmentKind::kAscending);
  }

  // A usable candidate covers a subset of the uncovered equality fields as
  // its prefix (any direction), followed exactly by the order suffix.
  struct Selected {
    const IndexDefinition* def;
    std::vector<FieldPath> covered;  // equality fields, in segment order
    const FieldFilter* contains = nullptr;  // an array-contains scan's filter
  };
  std::vector<Selected> selected;

  // Array-contains scans first: each filter needs its own AC index.
  for (const FieldFilter* f : contains) {
    const IndexDefinition* def =
        find_auto(f->field, SegmentKind::kArrayContains);
    if (def != nullptr) {
      selected.push_back({def, {}, f});
      continue;
    }
    const std::string canonical = f->field.CanonicalString();
    if (catalog.IsExempted(collection, canonical)) {
      return FailedPreconditionError(
          "field '" + canonical +
          "' is exempted from indexing; the query cannot be served");
    }
    if (catalog.AutoIndexId(collection, canonical,
                            SegmentKind::kArrayContains) != 0) {
      return FailedPreconditionError(
          "the array-contains index on field '" + canonical +
          "' is not active; the query cannot be served");
    }
  }
  if (lacking) {
    return FailedPreconditionError(
        "the query needs automatic indexes that are not materialized yet");
  }

  const bool needs_order_scan = !order.empty();
  bool have_order_scan = false;
  while (!uncovered.empty() || (needs_order_scan && !have_order_scan)) {
    const IndexDefinition* best = nullptr;
    std::vector<FieldPath> best_covered;
    for (const IndexDefinition* def : candidates) {
      // Longest equality prefix of this index lying within `uncovered` (an
      // array-contains segment covers no equality and matches no order).
      std::vector<FieldPath> covered;
      for (const IndexSegment& segment : def->segments) {
        const FieldPath& f = segment.field;
        if (segment.kind == SegmentKind::kArrayContains ||
            std::find(uncovered.begin(), uncovered.end(), f) ==
                uncovered.end() ||
            std::find(covered.begin(), covered.end(), f) != covered.end()) {
          break;
        }
        covered.push_back(f);
      }
      if (!TailMatchesOrder(*def, covered.size(), order)) continue;
      if (covered.empty() && (!needs_order_scan || have_order_scan)) {
        continue;  // contributes nothing
      }
      // Greedy: maximize covered equality fields; tie-break fewer segments.
      if (best == nullptr || covered.size() > best_covered.size() ||
          (covered.size() == best_covered.size() &&
           def->segments.size() < best->segments.size())) {
        best = def;
        best_covered = covered;
      }
    }
    if (best == nullptr) {
      std::ostringstream os;
      os << "no index set can serve this query; create a composite index on "
         << collection << " covering";
      for (const FieldPath& f : uncovered) os << " " << f.CanonicalString();
      for (const OrderBy& o : order) {
        os << " " << o.field.CanonicalString() << (o.descending ? " desc"
                                                                : " asc");
      }
      os << " (console: firestore-repro://indexes/create)";
      return FailedPreconditionError(os.str());
    }
    selected.push_back({best, best_covered});
    for (const FieldPath& f : best_covered) {
      uncovered.erase(std::find(uncovered.begin(), uncovered.end(), f));
    }
    have_order_scan = true;  // every selected scan carries the order suffix
  }

  // Zig-zag joining AC scans (suffix = name) with order-suffix scans is only
  // sound when the order suffix is empty — enforced above.

  // Build the concrete scans.
  QueryPlan plan;
  std::vector<FieldPath> suffix_fields;
  for (const OrderBy& o : order) {
    plan.suffix_directions.push_back(o.descending);
    suffix_fields.push_back(o.field);
  }

  SuffixBounds order_bounds;
  if (!order.empty()) {
    order_bounds = ComputeOrderFieldBounds(order[0].descending, inequalities);
  }

  // A cursor lower-bounds every scan's shared (order values..., name)
  // suffix, enabling pagination and resumption of partial results.
  std::string cursor_suffix;
  if (query.start_cursor().has_value()) {
    const Cursor& cursor = *query.start_cursor();
    for (size_t i = 0; i < order.size(); ++i) {
      if (order[i].descending) {
        codec::AppendValueDesc(cursor_suffix, cursor.order_values[i]);
      } else {
        codec::AppendValueAsc(cursor_suffix, cursor.order_values[i]);
      }
    }
    codec::AppendResourcePath(cursor_suffix, cursor.name);
    if (!cursor.inclusive) cursor_suffix = KeySuccessor(cursor_suffix);
    if (cursor_suffix > order_bounds.start) {
      order_bounds.start = cursor_suffix;
    }
  }

  auto value_for_equality = [&](const FieldPath& field) -> const Value& {
    for (const FieldFilter* f : equalities) {
      if (f->field == field) return f->value;
    }
    FS_LOG(FATAL) << "planner invariant: missing equality value";
    return equalities[0]->value;  // unreachable
  };

  for (const Selected& sel : selected) {
    const IndexDefinition& def = *sel.def;
    IndexScan scan;
    scan.index_id = def.index_id;
    scan.description = def.DebugString();
    std::string prefix = index::IndexKeyPrefix(database_id, def.index_id);
    if (sel.contains != nullptr) {
      // Point prefix on the element value.
      codec::AppendValueAsc(prefix, sel.contains->value);
      // AC scans have an empty order suffix; only a cursor can bound them.
      scan.start_key = prefix + order_bounds.start;
      scan.limit_key = PrefixSuccessor(prefix);
      scan.prefix_len = prefix.size();
      plan.scans.push_back(std::move(scan));
      continue;
    }
    for (size_t i = 0; i < sel.covered.size(); ++i) {
      const Value& v = value_for_equality(def.segments[i].field);
      if (def.segments[i].kind == SegmentKind::kDescending) {
        codec::AppendValueDesc(prefix, v);
      } else {
        codec::AppendValueAsc(prefix, v);
      }
    }
    scan.prefix_len = prefix.size();
    scan.suffix_fields = suffix_fields;
    scan.start_key = prefix + order_bounds.start;
    scan.limit_key = order_bounds.limit.empty()
                         ? PrefixSuccessor(prefix)
                         : prefix + order_bounds.limit;
    plan.scans.push_back(std::move(scan));
  }
  return plan;
}

}  // namespace firestore::query
