#include "firestore/query/executor.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/logging.h"
#include "firestore/codec/document_codec.h"
#include "firestore/codec/value_codec.h"
#include "firestore/index/layout.h"

namespace firestore::query {

using model::Document;
using model::ResourcePath;
using model::Value;

namespace {

constexpr int64_t kScanBatch = 256;

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
  ResultCollector(const Query& query, std::string_view database_id,
                  QueryResult* out)
      : query_(query),
        out_(out),
        to_skip_(query.offset()),
        entity_key_(index::EntityKeyPrefixForDatabase(database_id)),
        prefix_len_(entity_key_.size()) {}

  // Candidate document produced by the plan, named by the encoded name
  // bytes of its key; fetches + verifies it. Returns whether more results
  // are wanted (false once the limit is met).
  StatusOr<bool> Add(RowReader& reader, std::string_view name_bytes) {
    // Every plan shape reads the document here, a collection scan too,
    // although its Entities row already carried it: inside a transaction
    // this is the read taken under the row's shared lock, whereas
    // RowReader::Scan reads rows before it locks them. The key is the
    // database prefix plus the candidate key's name bytes (EntityKey ends
    // in the same encoding), so no name is re-encoded.
    entity_key_.resize(prefix_len_);
    entity_key_.append(name_bytes);
    spanner::Timestamp version = 0;
    ASSIGN_OR_RETURN(spanner::RowValue row,
                     reader.Read(index::kEntitiesTable, entity_key_,
                                 &version));
    ++out_->stats.entities_fetched;
    ASSIGN_OR_RETURN(std::optional<Document> doc,
                     codec::DecodeEntityRow(row, version));
    // An index entry without a document is tolerated (the write path keeps
    // them consistent, and a read at a fixed timestamp cannot race it).
    if (!doc.has_value() || !query_.Matches(*doc)) return true;
    if (to_skip_ > 0) {
      --to_skip_;
      return true;
    }
    out_->documents.push_back(query_.ApplyProjection(std::move(*doc)));
    return query_.limit() == 0 ||
           static_cast<int64_t>(out_->documents.size()) < query_.limit();
  }

 private:
  const Query& query_;
  QueryResult* out_;
  int64_t to_skip_;
  std::string entity_key_;  // the database prefix, then the current name
  const size_t prefix_len_;
};

// Forward cursor over one plan scan's rows, read from storage in pages. The
// first page holds `first_page` rows and each later one twice its
// predecessor, up to kScanBatch, so a walk that stops early has copied
// little more than it used. A seek inside the current page is a
// lower_bound; only a seek past the page, or a Next off its end, reads
// storage. A page shorter than requested is the range's last
// (RowReader::Scan fills a page while rows remain).
//
// Stats: a single scan counts each row it lands on and makes no seeks; a
// join counts one seek and one scanned row per positioning call, found or
// not.
class ScanCursor {
 public:
  ScanCursor(RowReader& reader, const IndexScan& scan, bool join,
             int64_t first_page, QueryStats* stats)
      : reader_(reader),
        scan_(scan),
        join_(join),
        page_rows_(first_page),
        stats_(stats) {}

  // Positions at the first row with key >= `key` in the scan's range.
  // Returns false when exhausted (or propagates an error via status()).
  bool SeekGE(const std::string& key) {
    if (page_.empty() || key > page_.back().key) return Fill(key);
    pos_ = std::lower_bound(page_.begin() + pos_, page_.end(), key,
                            [](const spanner::ScanRow& row,
                               const std::string& k) { return row.key < k; }) -
           page_.begin();
    return Land(true);
  }

  // Positions at the first row whose suffix is >= `suffix`.
  bool SeekSuffix(std::string_view suffix) {
    std::string key = scan_.start_key.substr(0, scan_.prefix_len);
    key.append(suffix);
    return SeekGE(key);
  }

  bool Next() {
    if (++pos_ < page_.size()) return Land(true);
    return Fill(KeySuccessor(page_.back().key));
  }

  // The shared merge suffix (order values + name) of the current row.
  std::string_view suffix() const {
    return std::string_view(page_[pos_].key).substr(scan_.prefix_len);
  }

  const Status& status() const { return status_; }

 private:
  // Reads the page starting at `start` (clamped to the scan's range).
  bool Fill(const std::string& start) {
    if (last_page_) return Land(false);
    auto rows = reader_.Scan(scan_.table, std::max(start, scan_.start_key),
                             scan_.limit_key, page_rows_);
    if (!rows.ok()) {
      status_ = rows.status();
      return false;
    }
    page_ = std::move(*rows);
    pos_ = 0;
    last_page_ = static_cast<int64_t>(page_.size()) < page_rows_;
    page_rows_ = std::min(2 * page_rows_, kScanBatch);
    return Land(!page_.empty());
  }

  bool Land(bool found) {
    if (join_) {
      ++stats_->seeks;
      ++stats_->index_rows_scanned;
    } else if (found) {
      ++stats_->index_rows_scanned;
    }
    return found;
  }

  RowReader& reader_;
  const IndexScan& scan_;
  const bool join_;
  int64_t page_rows_;  // size of the next page to read
  QueryStats* stats_;
  std::vector<spanner::ScanRow> page_;
  size_t pos_ = 0;
  bool last_page_ = false;
  Status status_;
};

// Runs `plan`, a join of N >= 1 ranges (paper §IV-D3), and feeds `visit`, in
// plan order, the (order values..., name) suffix of every candidate row
// together with the document name parsed off it and that name's encoded
// bytes. `visit(suffix, name, name_bytes)` returns StatusOr<bool>; false
// stops the walk. The views point into a cursor's page and are valid only
// during the call. Candidates are not yet scoped to the query's collection:
// index entries span the collection group, and an Entities range also holds
// subcollection documents.
//
// One leapfrog loop serves every plan: it seeks each lagging cursor to the
// largest current suffix, visits when all cursors agree, then advances them
// all. A single scan is the degenerate join that always agrees. Its first
// page holds `single_scan_page` rows; a join's cursors walk their posting
// lists whatever the caller's limit, so they read full pages.
template <typename Visit>
Status WalkPlan(RowReader& reader, const QueryPlan& plan,
                int64_t single_scan_page, QueryStats* stats, Visit&& visit) {
  FS_CHECK(!plan.scans.empty());
  const bool join = plan.scans.size() > 1;
  const int64_t first_page = join ? kScanBatch : single_scan_page;
  std::vector<ScanCursor> cursors;
  cursors.reserve(plan.scans.size());
  for (const IndexScan& scan : plan.scans) {
    ScanCursor& cursor =
        cursors.emplace_back(reader, scan, join, first_page, stats);
    if (!cursor.SeekGE(scan.start_key)) {
      return cursor.status();  // OK status == some scan is simply empty
    }
  }
  ResourcePath name;
  std::string_view name_bytes;
  while (true) {
    std::string_view max_suffix = cursors[0].suffix();
    bool all_equal = true;
    for (ScanCursor& c : cursors) {
      if (c.suffix() != max_suffix) {
        all_equal = false;
        max_suffix = std::max(max_suffix, c.suffix());
      }
    }
    if (!all_equal) {
      const std::string target(max_suffix);
      for (ScanCursor& c : cursors) {
        if (c.suffix() < target && !c.SeekSuffix(target)) return c.status();
      }
      continue;
    }
    if (!index::ParseIndexEntryName(max_suffix, plan.suffix_directions,
                                    &name, &name_bytes)) {
      return InternalError("corrupt " + plan.scans[0].table + " key");
    }
    ASSIGN_OR_RETURN(bool more, visit(max_suffix, name, name_bytes));
    if (!more) return Status::Ok();
    for (ScanCursor& c : cursors) {
      if (!c.Next()) return c.status();
    }
  }
}

// The first page of a single scan. Under a limit it holds every row the
// limit and offset can use plus one, so a page that meets the limit ends the
// walk.
int64_t FirstPage(const Query& query) {
  return query.limit() > 0
             ? std::min(query.limit() + query.offset() + 1, kScanBatch)
             : kScanBatch;
}

}  // namespace

StatusOr<QueryResult> ExecuteQuery(RowReader& reader,
                                   std::string_view database_id,
                                   const Query& query, const QueryPlan& plan,
                                   ExecOptions options) {
  QueryResult result;
  ResultCollector collector(query, database_id, &result);
  const ResourcePath collection = query.CollectionPath();
  RETURN_IF_ERROR(WalkPlan(
      reader, plan, FirstPage(query), &result.stats,
      [&](std::string_view, const ResourcePath& name,
          std::string_view name_bytes) -> StatusOr<bool> {
        if (InCollection(name, collection)) {
          ASSIGN_OR_RETURN(bool more, collector.Add(reader, name_bytes));
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

StatusOr<CountResult> ExecuteCountQuery(RowReader& reader,
                                        std::string_view /*database_id*/,
                                        const Query& query,
                                        const QueryPlan& plan) {
  CountResult result;
  if (HasContradictoryEqualities(query)) return result;  // provably empty
  const ResourcePath collection = query.CollectionPath();
  // The name is recoverable from the key alone; no document is fetched.
  // Under a limit the walk stops at the last match the limit can use.
  const int64_t wanted =
      query.limit() > 0 ? query.offset() + query.limit() : 0;
  int64_t matches = 0;
  RETURN_IF_ERROR(WalkPlan(
      reader, plan, FirstPage(query), &result.stats,
      [&](std::string_view, const ResourcePath& name,
          std::string_view) -> StatusOr<bool> {
        if (InCollection(name, collection)) ++matches;
        return wanted == 0 || matches < wanted;
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
  if (plan.scans.size() == 1 &&
      !plan.scans[0].suffix_fields.empty() &&
      plan.scans[0].suffix_fields[0] == field) {
    const bool descending = plan.suffix_directions[0];
    int64_t skipped = 0, taken = 0;
    RETURN_IF_ERROR(WalkPlan(
        reader, plan, kScanBatch, &agg.stats,
        [&](std::string_view suffix, const ResourcePath& name,
            std::string_view) -> StatusOr<bool> {
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
