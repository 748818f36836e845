// Exact binary serialization of documents, used as the value of a Spanner
// Entities row. The paper stores document contents "encoded in a protocol
// buffer stored in a single column" (§IV-D1); this is our equivalent compact
// tag/length format. Unlike the index-key encoding it is lossless (preserves
// the int64/double distinction, -0.0, NaN payload irrelevant) but not
// order-preserving.

#ifndef FIRESTORE_CODEC_DOCUMENT_CODEC_H_
#define FIRESTORE_CODEC_DOCUMENT_CODEC_H_

#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "firestore/model/document.h"

namespace firestore::codec {

std::string SerializeDocument(const model::Document& doc);
StatusOr<model::Document> ParseDocument(std::string_view data);

// Decodes an Entities row read at `row_version`; nullopt for an absent row.
// update_time is the version read (the Spanner commit-timestamp column); a
// stored create_time of 0 means "this version is the insert", and the write
// path persists a concrete one on every later update.
StatusOr<std::optional<model::Document>> DecodeEntityRow(
    std::optional<std::string_view> row, int64_t row_version);

// Varint helpers are exposed for reuse by other row-value formats.
void AppendVarint(std::string& dst, uint64_t value);
bool ParseVarint(std::string_view* src, uint64_t* out);

}  // namespace firestore::codec

#endif  // FIRESTORE_CODEC_DOCUMENT_CODEC_H_
