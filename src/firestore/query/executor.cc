#include "firestore/query/executor.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/logging.h"
#include "firestore/codec/document_codec.h"
#include "firestore/codec/value_codec.h"
#include "firestore/index/layout.h"

namespace firestore::query {

using model::Document;
using model::FieldPath;
using model::ResourcePath;
using model::Value;

namespace {

constexpr int64_t kScanBatch = 256;

Document ApplyProjection(const Query& query, Document doc) {
  if (query.projection().empty()) return doc;
  Document projected(doc.name(), {});
  projected.set_create_time(doc.create_time());
  projected.set_update_time(doc.update_time());
  for (const FieldPath& f : query.projection()) {
    std::optional<Value> v = doc.GetField(f);
    if (v.has_value()) projected.SetField(f, std::move(*v));
  }
  return projected;
}

// Index scans bound most predicates exactly; the residual checks a count
// must perform per candidate are collection membership (the index spans the
// whole collection group) and — never, thanks to the contradiction check
// below — repeated equality filters on one field.
bool HasContradictoryEqualities(const Query& query) {
  const auto& filters = query.filters();
  for (size_t i = 0; i < filters.size(); ++i) {
    if (filters[i].op != Operator::kEqual) continue;
    for (size_t j = i + 1; j < filters.size(); ++j) {
      if (filters[j].op != Operator::kEqual) continue;
      if (filters[i].field == filters[j].field &&
          filters[i].value.Compare(filters[j].value) != 0) {
        return true;
      }
    }
  }
  return false;
}

void Accumulate(const Value& v, AggregateResult* agg) {
  if (!v.is_number()) return;  // non-numeric values are ignored
  ++agg->count;
  if (v.is_integer() && agg->is_integer) {
    agg->sum_integer += v.integer_value();
  } else {
    if (agg->is_integer) {
      // Switch representation, carrying the integral prefix.
      agg->sum_double = static_cast<double>(agg->sum_integer);
      agg->is_integer = false;
    }
    agg->sum_double += v.AsDouble();
  }
}

// Whether `name` is a document directly inside `collection`, compared in
// place (no Parent() copy per candidate row).
bool InCollection(const ResourcePath& name, const ResourcePath& collection) {
  return name.size() == collection.size() + 1 && collection.IsPrefixOf(name);
}

// Accumulates verified documents while honoring offset/limit.
class ResultCollector {
 public:
  ResultCollector(const Query& query, QueryResult* out)
      : query_(query), out_(out), to_skip_(query.offset()) {}

  // Candidate document name produced by the plan; fetches + verifies it.
  // Returns whether more results are wanted (false once the limit is met).
  StatusOr<bool> Add(RowReader& reader, std::string_view database_id,
                     const ResourcePath& name) {
    // Every plan shape reads the document here, a collection scan too,
    // although its Entities row already carried it: inside a transaction
    // this is the read taken under the row's shared lock, whereas
    // RowReader::Scan reads rows before it locks them.
    spanner::Timestamp version = 0;
    ASSIGN_OR_RETURN(spanner::RowValue row,
                     reader.Read(index::kEntitiesTable,
                                 index::EntityKey(database_id, name),
                                 &version));
    ++out_->stats.entities_fetched;
    if (!row.has_value()) {
      // Index entry without a document: tolerated here (the write path keeps
      // them consistent; a race with a concurrent snapshot cannot happen at
      // a fixed timestamp).
      return true;
    }
    ASSIGN_OR_RETURN(Document doc, codec::ParseDocument(*row));
    codec::ResolveDocumentTimestamps(doc, version);
    if (!query_.Matches(doc)) return true;
    if (to_skip_ > 0) {
      --to_skip_;
      return true;
    }
    out_->documents.push_back(ApplyProjection(query_, std::move(doc)));
    return query_.limit() == 0 ||
           static_cast<int64_t>(out_->documents.size()) < query_.limit();
  }

 private:
  const Query& query_;
  QueryResult* out_;
  int64_t to_skip_;
};

// Forward iterator over one index scan's rows with SeekGE support.
class IndexScanIterator {
 public:
  IndexScanIterator(RowReader& reader, const IndexScan& scan,
                    QueryStats* stats)
      : reader_(reader), scan_(scan), stats_(stats) {}

  // Positions at the first key >= `key` within the scan bounds. Returns
  // false when exhausted (or propagates an error via status()).
  bool SeekGE(const std::string& key) {
    std::string start = std::max(key, scan_.start_key);
    ++stats_->seeks;
    auto rows = reader_.Scan(index::kIndexEntriesTable, start,
                             scan_.limit_key, 1);
    if (!rows.ok()) {
      status_ = rows.status();
      return false;
    }
    ++stats_->index_rows_scanned;
    if (rows->empty()) return false;
    current_key_ = (*rows)[0].key;
    return true;
  }

  bool Next() { return SeekGE(KeySuccessor(current_key_)); }

  // The shared merge suffix (order values + name) of the current row.
  std::string_view suffix() const {
    return std::string_view(current_key_).substr(scan_.prefix_len);
  }
  // Absolute key for a given suffix in this scan's key space.
  std::string KeyForSuffix(std::string_view suffix) const {
    return current_key_.substr(0, scan_.prefix_len) + std::string(suffix);
  }

  const Status& status() const { return status_; }

 private:
  RowReader& reader_;
  const IndexScan& scan_;
  QueryStats* stats_;
  std::string current_key_;
  Status status_;
};

// Runs `plan` in one of the two shapes of paper §IV-D3 and feeds `visit`,
// in plan order, the (order values..., name) suffix of every candidate row
// together with the document name parsed off it. `visit(suffix, name)`
// returns StatusOr<bool>; false stops the walk. Candidates are not yet
// scoped to the query's collection: index entries span the collection
// group, and an Entities range also holds subcollection documents.
//
// A single-index plan is one paged range over IndexEntries. A collection
// scan is the same range over Entities: an Entities key is bytes(database)
// + path, so past the database prefix its suffix is the name alone. Plans
// with more scans are leapfrog (zig-zag) joined on the shared suffix.
template <typename Visit>
Status WalkPlan(RowReader& reader, std::string_view database_id,
                const QueryPlan& plan, QueryStats* stats, Visit&& visit) {
  ResourcePath name;
  if (plan.collection_scan || plan.scans.size() == 1) {
    const bool entities = plan.collection_scan;
    const std::string table =
        entities ? index::kEntitiesTable : index::kIndexEntriesTable;
    const std::string& limit =
        entities ? plan.entities_limit : plan.scans[0].limit_key;
    const size_t prefix_len =
        entities ? index::EntityKeyPrefixForDatabase(database_id).size()
                 : plan.scans[0].prefix_len;
    std::string start =
        entities ? plan.entities_start : plan.scans[0].start_key;
    while (true) {
      ASSIGN_OR_RETURN(std::vector<spanner::ScanRow> rows,
                       reader.Scan(table, start, limit, kScanBatch));
      if (rows.empty()) return Status::Ok();
      for (const spanner::ScanRow& row : rows) {
        ++stats->index_rows_scanned;
        std::string_view suffix =
            std::string_view(row.key).substr(prefix_len);
        if (!index::ParseIndexEntryName(suffix, plan.suffix_directions,
                                        &name)) {
          return InternalError("corrupt " + table + " key");
        }
        ASSIGN_OR_RETURN(bool more, visit(suffix, name));
        if (!more) return Status::Ok();
      }
      start = KeySuccessor(rows.back().key);
    }
  }

  FS_CHECK_GT(plan.scans.size(), 1u);
  std::vector<IndexScanIterator> iters;
  iters.reserve(plan.scans.size());
  for (const IndexScan& scan : plan.scans) {
    iters.emplace_back(reader, scan, stats);
  }
  for (IndexScanIterator& it : iters) {
    if (!it.SeekGE(std::string())) {
      return it.status();  // OK status == some scan is simply empty
    }
  }
  while (true) {
    // Find the largest current suffix; check whether all agree.
    std::string_view max_suffix = iters[0].suffix();
    bool all_equal = true;
    for (IndexScanIterator& it : iters) {
      if (it.suffix() != max_suffix) {
        all_equal = false;
        if (it.suffix() > max_suffix) max_suffix = it.suffix();
      }
    }
    if (all_equal) {
      if (!index::ParseIndexEntryName(max_suffix, plan.suffix_directions,
                                      &name)) {
        return InternalError("corrupt index entry key in join");
      }
      ASSIGN_OR_RETURN(bool more, visit(max_suffix, name));
      if (!more) return Status::Ok();
      for (IndexScanIterator& it : iters) {
        if (!it.Next()) return it.status();
      }
      continue;
    }
    // Leapfrog: advance every lagging iterator to the max suffix.
    std::string target(max_suffix);
    for (IndexScanIterator& it : iters) {
      if (it.suffix() < target) {
        if (!it.SeekGE(it.KeyForSuffix(target))) return it.status();
      }
    }
  }
}

}  // namespace

StatusOr<QueryResult> ExecuteQuery(RowReader& reader,
                                   std::string_view database_id,
                                   const Query& query, const QueryPlan& plan,
                                   ExecOptions options) {
  QueryResult result;
  ResultCollector collector(query, &result);
  const ResourcePath collection = query.CollectionPath();
  RETURN_IF_ERROR(WalkPlan(
      reader, database_id, plan, &result.stats,
      [&](std::string_view, const ResourcePath& name) -> StatusOr<bool> {
        if (InCollection(name, collection)) {
          ASSIGN_OR_RETURN(bool more,
                           collector.Add(reader, database_id, name));
          if (!more) return false;
        }
        if (options.max_index_rows > 0 &&
            result.stats.index_rows_scanned >= options.max_index_rows) {
          result.reached_scan_limit = true;
          return false;
        }
        return true;
      }));
  return result;
}

StatusOr<QueryResult> PlanAndExecute(index::IndexCatalog& catalog,
                                     RowReader& reader,
                                     std::string_view database_id,
                                     const Query& query) {
  ASSIGN_OR_RETURN(QueryPlan plan, PlanQuery(catalog, database_id, query));
  return ExecuteQuery(reader, database_id, query, plan);
}

StatusOr<CountResult> ExecuteCountQuery(RowReader& reader,
                                        std::string_view database_id,
                                        const Query& query,
                                        const QueryPlan& plan) {
  CountResult result;
  if (HasContradictoryEqualities(query)) return result;  // provably empty
  const ResourcePath collection = query.CollectionPath();
  // The name is recoverable from the key alone; no document is fetched.
  int64_t matches = 0;
  RETURN_IF_ERROR(WalkPlan(
      reader, database_id, plan, &result.stats,
      [&](std::string_view, const ResourcePath& name) -> StatusOr<bool> {
        if (InCollection(name, collection)) ++matches;
        return true;
      }));
  matches = std::max<int64_t>(0, matches - query.offset());
  if (query.limit() > 0) matches = std::min<int64_t>(matches, query.limit());
  result.count = matches;
  return result;
}

StatusOr<AggregateResult> ExecuteSumQuery(RowReader& reader,
                                          std::string_view database_id,
                                          const Query& query,
                                          const QueryPlan& plan,
                                          const model::FieldPath& field) {
  AggregateResult agg;
  if (HasContradictoryEqualities(query)) return agg;
  const ResourcePath collection = query.CollectionPath();

  // Fast path: the field's values are the first suffix component of a
  // single index scan — decode them from the keys.
  if (!plan.collection_scan && plan.scans.size() == 1 &&
      !plan.scans[0].suffix_fields.empty() &&
      plan.scans[0].suffix_fields[0] == field) {
    const bool descending = plan.suffix_directions[0];
    int64_t skipped = 0, taken = 0;
    RETURN_IF_ERROR(WalkPlan(
        reader, database_id, plan, &agg.stats,
        [&](std::string_view suffix,
            const ResourcePath& name) -> StatusOr<bool> {
          if (!InCollection(name, collection)) return true;
          if (skipped < query.offset()) {
            ++skipped;
            return true;
          }
          if (query.limit() > 0 && taken >= query.limit()) return false;
          ++taken;
          Value value;
          bool ok = descending ? codec::ParseValueDesc(&suffix, &value)
                               : codec::ParseValueAsc(&suffix, &value);
          if (!ok) return InternalError("corrupt index entry value");
          Accumulate(value, &agg);
          return true;
        }));
    return agg;
  }

  // General path: run the underlying query (without projection, so the
  // aggregated field is present) and fold.
  Query fetch = query;
  fetch.Project({});
  ASSIGN_OR_RETURN(QueryResult result,
                   ExecuteQuery(reader, database_id, fetch, plan));
  agg.stats = result.stats;
  for (const Document& doc : result.documents) {
    if (const Value* v = doc.FindField(field)) Accumulate(*v, &agg);
  }
  return agg;
}

}  // namespace firestore::query
