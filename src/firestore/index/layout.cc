#include "firestore/index/layout.h"

#include "firestore/codec/ordered_code.h"
#include "firestore/codec/value_codec.h"

namespace firestore::index {

std::string EntityKey(std::string_view database_id,
                      const model::ResourcePath& name) {
  std::string key;
  codec::AppendBytes(key, database_id);
  codec::AppendResourcePath(key, name);
  return key;
}

std::string EntityKeyPrefixForDatabase(std::string_view database_id) {
  std::string key;
  codec::AppendBytes(key, database_id);
  return key;
}

std::string EntityKeyPrefixForCollection(
    std::string_view database_id, const model::ResourcePath& collection) {
  std::string key;
  codec::AppendBytes(key, database_id);
  codec::AppendResourcePath(key, collection);
  return key;
}

std::string IndexEntryKey(std::string_view database_id, IndexId index_id,
                          std::string_view encoded_values,
                          const model::ResourcePath& name) {
  std::string key;
  codec::AppendBytes(key, database_id);
  codec::AppendInt64(key, index_id);
  key.append(encoded_values);
  codec::AppendResourcePath(key, name);
  return key;
}

std::string IndexKeyPrefix(std::string_view database_id, IndexId index_id) {
  std::string key;
  codec::AppendBytes(key, database_id);
  codec::AppendInt64(key, index_id);
  return key;
}

bool IndexEntrySuffix(std::string_view key, std::string_view prefix,
                      std::string_view* suffix) {
  if (key.size() < prefix.size() ||
      key.substr(0, prefix.size()) != prefix) {
    return false;
  }
  *suffix = key.substr(prefix.size());
  return true;
}

bool ParseIndexEntryName(std::string_view values_and_name,
                         const std::vector<bool>& value_descending,
                         model::ResourcePath* name,
                         std::string_view* name_bytes) {
  std::string_view rest = values_and_name;
  for (bool descending : value_descending) {
    model::Value ignored;
    bool ok = descending ? codec::ParseValueDesc(&rest, &ignored)
                         : codec::ParseValueAsc(&rest, &ignored);
    if (!ok) return false;
  }
  const std::string_view encoded = rest;
  if (!codec::ParseResourcePath(&rest, name)) return false;
  *name_bytes = encoded.substr(0, encoded.size() - rest.size());
  return true;
}

}  // namespace firestore::index
