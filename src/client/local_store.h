// Client-side local cache and mutation queue (paper §IV-E).
//
// "The Client (Mobile and Web) SDKs build a local cache of the documents
// accessed by the client ... Mutations to documents by the client are
// acknowledged immediately after updating the local cache; the updates are
// also flushed to the Firestore API asynchronously."
//
// The LocalStore holds (a) the latest authoritative server view of each
// document the client has seen, (b) the queue of not-yet-acknowledged
// local mutations, and (c) local single-field indexes over the cached
// documents ("together with the necessary local indexes") so offline
// queries with equality filters touch only candidate documents instead of
// scanning the whole cache. Reads overlay (b) on (a) — latency
// compensation.

#ifndef FIRESTORE_CLIENT_LOCAL_STORE_H_
#define FIRESTORE_CLIENT_LOCAL_STORE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "backend/types.h"
#include "common/status.h"
#include "firestore/model/document.h"
#include "firestore/query/query.h"

namespace firestore::client {

struct CacheEntry {
  // nullopt = the server confirmed the document does not exist.
  std::optional<model::Document> doc;
  // Server timestamp at which this view was current.
  int64_t snapshot_ts = 0;
};

struct PendingMutation {
  uint64_t sequence = 0;
  backend::Mutation mutation;
};

class LocalStore {
 public:
  // -- Authoritative (server) state --

  void ApplyServerDocument(const model::ResourcePath& name,
                           std::optional<model::Document> doc,
                           int64_t snapshot_ts);
  // Drops the server view of `name` when `snapshot_ts` is newer than it (an
  // entry at the same snapshot came from a reader that saw the document
  // there): the document becomes unknown rather than confirmed absent.
  void ForgetServerDocument(const model::ResourcePath& name,
                            int64_t snapshot_ts);

  // -- Mutation queue --

  uint64_t Enqueue(backend::Mutation mutation);
  const std::vector<PendingMutation>& pending() const { return pending_; }
  bool HasPending() const { return !pending_.empty(); }
  // Drops every mutation with sequence <= `sequence` (they were committed
  // or rejected).
  void AckThrough(uint64_t sequence);

  // -- Overlay reads (latency compensation) --

  // The document as the client should see it: server view + pending
  // mutations applied in order. `known` is false when neither the cache nor
  // the queue knows anything about the document.
  std::optional<model::Document> OverlayDocument(
      const model::ResourcePath& name, bool* known = nullptr) const;

  // Query::Evaluate over the cache (server views + overlay): only as
  // complete as the cache — the expected behavior for offline queries.
  // Equality filters are served from the local indexes.
  std::vector<model::Document> RunLocalQuery(const query::Query& q) const;

  // Documents examined by the last RunLocalQuery (tests assert the local
  // index narrows the candidate set).
  int64_t last_query_docs_examined() const {
    return last_query_docs_examined_;
  }

  // Whether any pending mutation touches a document matching `q` or in its
  // current result set.
  bool PendingAffects(const query::Query& q) const;

  // -- Persistence (paper §IV-E: optional persisted cache => warm start) --

  std::string Serialize() const;
  static StatusOr<LocalStore> Parse(std::string_view data);

  void Clear();
  size_t cached_documents() const { return server_docs_.size(); }

 private:
  // Local index maintenance on every server-view change.
  void IndexDocument(const std::string& name,
                     const std::optional<model::Document>& old_doc,
                     const std::optional<model::Document>& new_doc);

  std::map<std::string, CacheEntry> server_docs_;  // by canonical name
  std::vector<PendingMutation> pending_;
  uint64_t next_sequence_ = 1;
  // (collection id, field path, encoded value) -> document names. Only
  // server-confirmed documents are indexed; the pending overlay is merged
  // at query time.
  std::map<std::tuple<std::string, std::string, std::string>,
           std::set<std::string>>
      local_index_;
  mutable int64_t last_query_docs_examined_ = 0;
};

}  // namespace firestore::client

#endif  // FIRESTORE_CLIENT_LOCAL_STORE_H_
