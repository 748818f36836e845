// The multi-tenant Spanner key layout (paper §IV-D1).
//
// All Firestore databases in a region share two fixed-schema Spanner tables:
//
//   Entities     key = <database-id> <document-name>            value = doc
//   IndexEntries key = <database-id> <index-id> <values> <name> value = ""
//
// Each component is order-preserving and prefix-free, so every tenant
// database occupies one contiguous key range (its Spanner *directory*), each
// logical index occupies one contiguous range inside it, and a linear scan
// of IndexEntries rows is a linear scan of the logical index.

#ifndef FIRESTORE_INDEX_LAYOUT_H_
#define FIRESTORE_INDEX_LAYOUT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "firestore/model/path.h"

namespace firestore::index {

inline constexpr char kEntitiesTable[] = "Entities";
inline constexpr char kIndexEntriesTable[] = "IndexEntries";

using IndexId = int64_t;

// Key of a document's Entities row.
std::string EntityKey(std::string_view database_id,
                      const model::ResourcePath& name);

// Key prefix covering every Entities row of one database.
std::string EntityKeyPrefixForDatabase(std::string_view database_id);

// Key prefix covering the Entities rows of all documents that are direct
// children of `collection` (e.g. all of /restaurants/*). Because children
// extend the parent's encoding, this is the collection path's encoding.
std::string EntityKeyPrefixForCollection(std::string_view database_id,
                                         const model::ResourcePath& collection);

// Key of one index entry: database, index, encoded values, document name.
// `encoded_values` must already be the direction-aware encoding of the
// index's value tuple.
std::string IndexEntryKey(std::string_view database_id, IndexId index_id,
                          std::string_view encoded_values,
                          const model::ResourcePath& name);

// Key prefix covering every entry of one index.
std::string IndexKeyPrefix(std::string_view database_id, IndexId index_id);

// Splits an IndexEntries key back into (database ignored by caller) the
// suffix after the given prefix: the encoded values + name portion. Returns
// false if `key` does not start with `prefix`.
bool IndexEntrySuffix(std::string_view key, std::string_view prefix,
                      std::string_view* suffix);

// Extracts the document name (the trailing component) from an index entry
// key, given how many value components precede it and their directions.
// `name_bytes` receives the name's encoding, a view into `values_and_name`:
// EntityKey ends in the same bytes, so the document's Entities key is
// EntityKeyPrefixForDatabase plus `name_bytes`. Returns false on malformed
// input.
bool ParseIndexEntryName(std::string_view values_and_name,
                         const std::vector<bool>& value_descending,
                         model::ResourcePath* name,
                         std::string_view* name_bytes);

}  // namespace firestore::index

#endif  // FIRESTORE_INDEX_LAYOUT_H_
