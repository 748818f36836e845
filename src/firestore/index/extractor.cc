#include "firestore/index/extractor.h"

#include <algorithm>

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
  // dedicated array-contains extraction below.
}

std::string CollectionIdOf(const Document& doc) {
  return doc.name().Parent().last_segment();
}

void AppendSegmentValue(std::string& dst, SegmentKind kind,
                        const Value& value) {
  if (kind == SegmentKind::kDescending) {
    codec::AppendValueDesc(dst, value);
  } else {
    codec::AppendValueAsc(dst, value);
  }
}

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
  const std::string collection_id = CollectionIdOf(doc);
  const std::vector<IndexableLeaf> leaves = FlattenDocument(doc);

  // Automatic single-field indexes: ascending + descending per leaf, plus
  // array-contains per element of array leaves.
  for (const IndexableLeaf& leaf : leaves) {
    const std::string field = leaf.field.CanonicalString();
    if (catalog.IsExempted(collection_id, field)) continue;
    auto index_id = [&](SegmentKind kind) {
      IndexId id = catalog.AutoIndexId(collection_id, field, kind);
      if (id == 0 && missing != nullptr) {
        missing->push_back({collection_id, leaf.field, kind});
      }
      return id;
    };
    for (SegmentKind kind : {SegmentKind::kAscending,
                             SegmentKind::kDescending}) {
      IndexId id = index_id(kind);
      if (id == 0) continue;
      std::string values;
      AppendSegmentValue(values, kind, leaf.value);
      keys.push_back(IndexEntryKey(database_id, id, values, doc.name()));
    }
    if (leaf.value.type() == ValueType::kArray) {
      IndexId id = index_id(SegmentKind::kArrayContains);
      if (id == 0) continue;
      for (const Value& element : leaf.value.array_value()) {
        std::string values;
        codec::AppendValueAsc(values, element);
        keys.push_back(IndexEntryKey(database_id, id, values, doc.name()));
      }
    }
  }

  // Composite indexes in any maintained state (a mutating write "makes all
  // necessary updates to the IndexEntries table so that it conforms to an
  // on-going backfill or backremoval", paper §IV-D1).
  for (const IndexDefinition* def :
       catalog.MaintainedComposites(collection_id)) {
    std::vector<std::string> entries =
        ComputeEntriesForIndex(*def, database_id, doc);
    keys.insert(keys.end(), entries.begin(), entries.end());
  }

  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

std::vector<std::string> ComputeEntriesForIndex(const IndexDefinition& index,
                                                std::string_view database_id,
                                                const Document& doc) {
  if (CollectionIdOf(doc) != index.collection_id) return {};
  if (index.segments.size() == 1 &&
      index.segments[0].kind == SegmentKind::kArrayContains) {
    std::optional<Value> v = doc.GetField(index.segments[0].field);
    if (!v.has_value() || v->type() != ValueType::kArray) return {};
    std::vector<std::string> keys;
    for (const Value& element : v->array_value()) {
      std::string values;
      codec::AppendValueAsc(values, element);
      keys.push_back(
          IndexEntryKey(database_id, index.index_id, values, doc.name()));
    }
    return keys;
  }
  std::string values;
  for (const IndexSegment& segment : index.segments) {
    std::optional<Value> v = doc.GetField(segment.field);
    // A document missing any indexed field has no entry in that index.
    if (!v.has_value()) return {};
    AppendSegmentValue(values, segment.kind, *v);
  }
  return {IndexEntryKey(database_id, index.index_id, values, doc.name())};
}

}  // namespace firestore::index
