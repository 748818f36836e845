#include "firestore/index/extractor.h"

#include <algorithm>

#include "firestore/codec/ordered_code.h"
#include "firestore/codec/value_codec.h"

namespace firestore::index {

using model::Document;
using model::FieldPath;
using model::Map;
using model::Value;
using model::ValueType;

namespace {

void FlattenInto(const std::vector<std::string>& prefix, const Value& value,
                 std::vector<IndexableLeaf>& out) {
  out.push_back({FieldPath(prefix), value});
  if (value.type() == ValueType::kMap) {
    for (const auto& [k, v] : value.map_value()) {
      std::vector<std::string> child = prefix;
      child.push_back(k);
      FlattenInto(child, v, out);
    }
  }
  // Array elements are not flattened into leaves: they are indexed by the
  // array-contains extraction (AutoEntryWalk).
}

// The id of the collection directly containing `doc`.
const std::string& CollectionIdOf(const Document& doc) {
  const std::vector<std::string>& segments = doc.name().segments();
  return segments[segments.size() - 2];
}

void AppendSegmentValue(std::string& dst, SegmentKind kind,
                        const Value& value) {
  if (kind == SegmentKind::kDescending) {
    codec::AppendValueDesc(dst, value);
  } else {
    codec::AppendValueAsc(dst, value);
  }
}

// The IndexEntries keys of one document, byte for byte IndexEntryKey's: the
// database prefix and the document name are encoded once, and each key is
// that prefix, an index id, the encoded values and that name.
class EntryKeys {
 public:
  EntryKeys(std::string_view database_id, const model::ResourcePath& name) {
    codec::AppendBytes(database_, database_id);
    codec::AppendResourcePath(name_, name);
  }

  void Add(IndexId index_id, std::string_view values,
           std::vector<std::string>& out) const {
    std::string& key = out.emplace_back();
    key.reserve(database_.size() + sizeof(int64_t) + values.size() +
                name_.size());
    key.append(database_);
    codec::AppendInt64(key, index_id);
    key.append(values);
    key.append(name_);
  }

 private:
  std::string database_;
  std::string name_;
};

// Appends `doc`'s entries in one index of its collection.
void AppendEntriesForIndex(const IndexDefinition& index,
                           const EntryKeys& entry_keys, const Document& doc,
                           std::vector<std::string>& out) {
  std::string values;
  if (index.segments.size() == 1 &&
      index.segments[0].kind == SegmentKind::kArrayContains) {
    const Value* v = doc.FindField(index.segments[0].field);
    if (v == nullptr || v->type() != ValueType::kArray) return;
    for (const Value& element : v->array_value()) {
      values.clear();
      codec::AppendValueAsc(values, element);
      entry_keys.Add(index.index_id, values, out);
    }
    return;
  }
  for (const IndexSegment& segment : index.segments) {
    const Value* v = doc.FindField(segment.field);
    // A document missing any indexed field has no entry in that index.
    if (v == nullptr) return;
    AppendSegmentValue(values, segment.kind, *v);
  }
  entry_keys.Add(index.index_id, values, out);
}

// Adds the automatic-index entries of every leaf of one document, visiting
// the leaves in FlattenDocument's order. The current leaf's canonical field
// string grows and shrinks in place as the walk descends and returns.
class AutoEntryWalk {
 public:
  AutoEntryWalk(const CatalogSnapshot& catalog,
                const std::string& collection_id, const EntryKeys& entry_keys,
                std::vector<AutoIndexKey>* missing,
                std::vector<std::string>& out)
      : catalog_(catalog),
        collection_id_(collection_id),
        entry_keys_(entry_keys),
        missing_(missing),
        out_(out) {}

  // The leaf `segment` below the current one, then its nested map fields.
  void Visit(const std::string& segment, const Value& value) {
    const size_t parent_size = field_.size();
    if (!segments_.empty()) field_.push_back('.');
    field_.append(segment);
    segments_.push_back(&segment);
    AddLeaf(value);
    if (value.type() == ValueType::kMap) {
      for (const auto& [k, v] : value.map_value()) Visit(k, v);
    }
    segments_.pop_back();
    field_.resize(parent_size);
  }

 private:
  // Ascending + descending on the leaf, plus array-contains per element of
  // an array leaf (array elements are not leaves themselves).
  void AddLeaf(const Value& value) {
    if (catalog_.IsExempted(collection_id_, field_)) return;
    for (SegmentKind kind :
         {SegmentKind::kAscending, SegmentKind::kDescending}) {
      IndexId id = IdOf(kind);
      if (id == 0) continue;
      values_.clear();
      AppendSegmentValue(values_, kind, value);
      entry_keys_.Add(id, values_, out_);
    }
    if (value.type() != ValueType::kArray) return;
    IndexId id = IdOf(SegmentKind::kArrayContains);
    if (id == 0) return;
    for (const Value& element : value.array_value()) {
      values_.clear();
      codec::AppendValueAsc(values_, element);
      entry_keys_.Add(id, values_, out_);
    }
  }

  // The current leaf's automatic index of `kind`, or 0 (noted as missing).
  IndexId IdOf(SegmentKind kind) {
    IndexId id = catalog_.AutoIndexId(collection_id_, field_, kind);
    if (id == 0 && missing_ != nullptr) {
      std::vector<std::string> path;
      path.reserve(segments_.size());
      for (const std::string* s : segments_) path.push_back(*s);
      missing_->push_back(
          {collection_id_, model::FieldPath(std::move(path)), kind});
    }
    return id;
  }

  const CatalogSnapshot& catalog_;
  const std::string& collection_id_;
  const EntryKeys& entry_keys_;
  std::vector<AutoIndexKey>* missing_;
  std::vector<std::string>& out_;
  // The current leaf: its canonical field string and its segments.
  std::string field_;
  std::vector<const std::string*> segments_;
  std::string values_;  // scratch for one entry's encoded values
};

}  // namespace

std::vector<IndexableLeaf> FlattenDocument(const Document& doc) {
  std::vector<IndexableLeaf> leaves;
  for (const auto& [k, v] : doc.fields()) {
    FlattenInto({k}, v, leaves);
  }
  return leaves;
}

std::vector<std::string> ComputeIndexEntries(
    const CatalogSnapshot& catalog, std::string_view database_id,
    const Document& doc, std::vector<AutoIndexKey>* missing) {
  std::vector<std::string> keys;
  const std::string& collection_id = CollectionIdOf(doc);
  const EntryKeys entry_keys(database_id, doc.name());

  // Automatic single-field indexes.
  AutoEntryWalk walk(catalog, collection_id, entry_keys, missing, keys);
  for (const auto& [k, v] : doc.fields()) walk.Visit(k, v);

  // Composite indexes in any maintained state (a mutating write "makes all
  // necessary updates to the IndexEntries table so that it conforms to an
  // on-going backfill or backremoval", paper §IV-D1).
  for (const IndexDefinition* def :
       catalog.MaintainedComposites(collection_id)) {
    AppendEntriesForIndex(*def, entry_keys, doc, keys);
  }

  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

std::vector<std::string> ComputeEntriesForIndex(const IndexDefinition& index,
                                                std::string_view database_id,
                                                const Document& doc) {
  std::vector<std::string> keys;
  if (CollectionIdOf(doc) != index.collection_id) return keys;
  AppendEntriesForIndex(index, EntryKeys(database_id, doc.name()), doc, keys);
  return keys;
}

}  // namespace firestore::index
