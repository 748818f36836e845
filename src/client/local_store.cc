#include "client/local_store.h"

#include <algorithm>

#include "common/checksum.h"
#include "firestore/codec/document_codec.h"
#include "firestore/codec/value_codec.h"

namespace firestore::client {

using backend::Mutation;
using model::Document;
using model::ResourcePath;

void LocalStore::ApplyServerDocument(const ResourcePath& name,
                                     std::optional<Document> doc,
                                     int64_t snapshot_ts) {
  CacheEntry& entry = server_docs_[name.CanonicalString()];
  if (snapshot_ts < entry.snapshot_ts) return;  // stale update
  IndexDocument(name.CanonicalString(), entry.doc, doc);
  entry.doc = std::move(doc);
  entry.snapshot_ts = snapshot_ts;
}

void LocalStore::IndexDocument(const std::string& name,
                               const std::optional<Document>& old_doc,
                               const std::optional<Document>& new_doc) {
  auto entries_of = [](const std::optional<Document>& doc) {
    std::vector<std::tuple<std::string, std::string, std::string>> keys;
    if (!doc.has_value()) return keys;
    std::string collection = doc->name().Parent().last_segment();
    for (const auto& [field, value] : doc->fields()) {
      keys.emplace_back(collection, field, codec::EncodeValueAsc(value));
    }
    return keys;
  };
  for (const auto& key : entries_of(old_doc)) {
    auto it = local_index_.find(key);
    if (it != local_index_.end()) {
      it->second.erase(name);
      if (it->second.empty()) local_index_.erase(it);
    }
  }
  for (const auto& key : entries_of(new_doc)) {
    local_index_[key].insert(name);
  }
}

void LocalStore::ForgetServerDocument(const ResourcePath& name,
                                      int64_t snapshot_ts) {
  auto it = server_docs_.find(name.CanonicalString());
  if (it == server_docs_.end() || snapshot_ts <= it->second.snapshot_ts) {
    return;
  }
  IndexDocument(it->first, it->second.doc, std::nullopt);
  server_docs_.erase(it);
}

uint64_t LocalStore::Enqueue(Mutation mutation) {
  uint64_t seq = next_sequence_++;
  pending_.push_back({seq, std::move(mutation)});
  return seq;
}

void LocalStore::AckThrough(uint64_t sequence) {
  pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                [&](const PendingMutation& p) {
                                  return p.sequence <= sequence;
                                }),
                 pending_.end());
}

std::optional<Document> LocalStore::OverlayDocument(const ResourcePath& name,
                                                    bool* known) const {
  std::optional<Document> doc;
  bool have_info = false;
  auto it = server_docs_.find(name.CanonicalString());
  if (it != server_docs_.end()) {
    doc = it->second.doc;
    have_info = true;
  }
  for (const PendingMutation& p : pending_) {
    if (!(p.mutation.name == name)) continue;
    doc = p.mutation.ApplyTo(doc);
    have_info = true;
  }
  if (known != nullptr) *known = have_info;
  return doc;
}

std::vector<Document> LocalStore::RunLocalQuery(const query::Query& q) const {
  // Candidate names: from a local index when the query has an equality
  // filter on a top-level field, otherwise every cached document. Pending
  // mutations are always candidates (their effects are not indexed).
  std::vector<std::string> names;
  const query::FieldFilter* indexable = nullptr;
  for (const query::FieldFilter& f : q.filters()) {
    if (f.op == query::Operator::kEqual && f.field.size() == 1) {
      indexable = &f;
      break;
    }
  }
  if (indexable != nullptr) {
    auto it = local_index_.find(std::make_tuple(
        q.collection_id(), indexable->field.CanonicalString(),
        codec::EncodeValueAsc(indexable->value)));
    if (it != local_index_.end()) {
      names.assign(it->second.begin(), it->second.end());
    }
  } else {
    for (const auto& [name, entry] : server_docs_) names.push_back(name);
  }
  for (const PendingMutation& p : pending_) {
    names.push_back(p.mutation.name.CanonicalString());
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());

  last_query_docs_examined_ = static_cast<int64_t>(names.size());
  std::vector<Document> candidates;
  for (const std::string& name : names) {
    auto path = ResourcePath::Parse(name);
    if (!path.ok()) continue;
    std::optional<Document> doc = OverlayDocument(*path);
    if (doc.has_value()) candidates.push_back(std::move(*doc));
  }
  return q.Evaluate(std::move(candidates));
}

bool LocalStore::PendingAffects(const query::Query& q) const {
  for (const PendingMutation& p : pending_) {
    const ResourcePath& name = p.mutation.name;
    if (name.Parent() == q.CollectionPath()) return true;
  }
  return false;
}

std::string LocalStore::Serialize() const {
  std::string out;
  codec::AppendVarint(out, server_docs_.size());
  for (const auto& [name, entry] : server_docs_) {
    codec::AppendVarint(out, name.size());
    out += name;
    out.push_back(entry.doc.has_value() ? 1 : 0);
    codec::AppendVarint(out, static_cast<uint64_t>(entry.snapshot_ts));
    if (entry.doc.has_value()) {
      std::string doc_bytes = codec::SerializeDocument(*entry.doc);
      codec::AppendVarint(out, doc_bytes.size());
      out += doc_bytes;
    }
  }
  // Pending mutations are persisted too (offline writes survive restarts).
  codec::AppendVarint(out, pending_.size());
  for (const PendingMutation& p : pending_) {
    codec::AppendVarint(out, p.sequence);
    out.push_back(static_cast<char>(p.mutation.kind));
    Document holder(p.mutation.name, p.mutation.fields);
    std::string bytes = codec::SerializeDocument(holder);
    codec::AppendVarint(out, bytes.size());
    out += bytes;
  }
  // Persisted caches carry an end-to-end checksum: a corrupted on-device
  // store is detected and rebuilt rather than trusted.
  AppendChecksum(out);
  return out;
}

StatusOr<LocalStore> LocalStore::Parse(std::string_view data) {
  if (!VerifyAndStripChecksum(&data)) {
    return InternalError("corrupt cache: checksum mismatch");
  }
  LocalStore store;
  uint64_t num_docs;
  if (!codec::ParseVarint(&data, &num_docs)) {
    return InternalError("corrupt cache: header");
  }
  for (uint64_t i = 0; i < num_docs; ++i) {
    uint64_t name_len;
    if (!codec::ParseVarint(&data, &name_len) || data.size() < name_len + 1) {
      return InternalError("corrupt cache: name");
    }
    std::string name(data.substr(0, name_len));
    data.remove_prefix(name_len);
    bool has_doc = data.front() != 0;
    data.remove_prefix(1);
    uint64_t ts;
    if (!codec::ParseVarint(&data, &ts)) {
      return InternalError("corrupt cache: ts");
    }
    CacheEntry entry;
    entry.snapshot_ts = static_cast<int64_t>(ts);
    if (has_doc) {
      uint64_t len;
      if (!codec::ParseVarint(&data, &len) || data.size() < len) {
        return InternalError("corrupt cache: doc");
      }
      ASSIGN_OR_RETURN(Document doc,
                       codec::ParseDocument(data.substr(0, len)));
      data.remove_prefix(len);
      entry.doc = std::move(doc);
    }
    store.IndexDocument(name, std::nullopt, entry.doc);
    store.server_docs_.emplace(std::move(name), std::move(entry));
  }
  uint64_t num_pending;
  if (!codec::ParseVarint(&data, &num_pending)) {
    return InternalError("corrupt cache: pending header");
  }
  for (uint64_t i = 0; i < num_pending; ++i) {
    uint64_t seq, len;
    if (!codec::ParseVarint(&data, &seq) || data.empty()) {
      return InternalError("corrupt cache: pending seq");
    }
    auto kind = static_cast<Mutation::Kind>(data.front());
    data.remove_prefix(1);
    if (!codec::ParseVarint(&data, &len) || data.size() < len) {
      return InternalError("corrupt cache: pending doc");
    }
    ASSIGN_OR_RETURN(Document holder,
                     codec::ParseDocument(data.substr(0, len)));
    data.remove_prefix(len);
    PendingMutation p;
    p.sequence = seq;
    p.mutation.kind = kind;
    p.mutation.name = holder.name();
    p.mutation.fields = holder.fields();
    store.pending_.push_back(std::move(p));
    store.next_sequence_ = std::max(store.next_sequence_, seq + 1);
  }
  if (!data.empty()) return InternalError("corrupt cache: trailing bytes");
  return store;
}

void LocalStore::Clear() {
  server_docs_.clear();
  pending_.clear();
  local_index_.clear();
}

}  // namespace firestore::client
