// Computes the IndexEntries rows implied by a document under one catalog
// snapshot (paper §IV-D2 step 4: "Use the (cached) index definitions to
// compute the index entry changes for the two documents").

#ifndef FIRESTORE_INDEX_EXTRACTOR_H_
#define FIRESTORE_INDEX_EXTRACTOR_H_

#include <string>
#include <vector>

#include "firestore/index/catalog.h"
#include "firestore/model/document.h"

namespace firestore::index {

// One flattened indexable field of a document.
struct IndexableLeaf {
  model::FieldPath field;
  model::Value value;
};

// Flattens a document into indexable leaves: nested maps become dotted field
// paths ("Firestore indexing flattens out fields such as arrays or maps to
// index each element", paper §V-B2). Map-valued and array-valued fields also
// appear themselves (whole-value ordering/equality).
std::vector<IndexableLeaf> FlattenDocument(const model::Document& doc);

// The full set of IndexEntries row keys for `doc` under `catalog`: automatic
// asc+desc per leaf, array-contains per array element, plus every maintained
// composite index whose fields the document has. The result is sorted and
// deduplicated. An automatic index `doc` needs that `catalog` has neither
// materialized nor exempted gives no entries; it is appended to `*missing`
// (when given) in materialization order, so that the caller can materialize
// it (IndexCatalog::MaterializeAutoIndexes) and compute again.
std::vector<std::string> ComputeIndexEntries(
    const CatalogSnapshot& catalog, std::string_view database_id,
    const model::Document& doc, std::vector<AutoIndexKey>* missing = nullptr);

// Entries of `doc` for one specific index (used by backfill). Empty if the
// document does not participate (wrong collection or missing fields).
std::vector<std::string> ComputeEntriesForIndex(
    const IndexDefinition& index, std::string_view database_id,
    const model::Document& doc);

}  // namespace firestore::index

#endif  // FIRESTORE_INDEX_EXTRACTOR_H_
