#include "client/client.h"

#include <algorithm>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/retry.h"

namespace firestore::client {

using backend::Mutation;
using model::Document;
using model::Map;
using model::ResourcePath;

// ---------------------------------------------------------------------------
// ClientTransaction

StatusOr<std::optional<Document>> ClientTransaction::Get(
    const ResourcePath& name) {
  if (!client_->network_enabled()) {
    return UnavailableError("transactions require connectivity");
  }
  StatusOr<std::optional<Document>> doc = client_->service_->Get(
      client_->database_id_, name, /*read_ts=*/0, client_->end_user());
  if (doc.ok()) {
    read_versions_[name.CanonicalString()] =
        doc->has_value() ? (*doc)->update_time() : 0;
  }
  return doc;
}

void ClientTransaction::Set(ResourcePath name, Map fields) {
  mutations_.push_back(Mutation::Set(std::move(name), std::move(fields)));
}

void ClientTransaction::Merge(ResourcePath name, Map fields) {
  mutations_.push_back(Mutation::Merge(std::move(name), std::move(fields)));
}

void ClientTransaction::Delete(ResourcePath name) {
  mutations_.push_back(Mutation::Delete(std::move(name)));
}

// ---------------------------------------------------------------------------
// FirestoreClient

namespace {

// What the client asks the server for: full documents, so the cache never
// holds a projected one. Views project locally.
query::Query FullDocuments(query::Query q) { return q.Project({}); }

// For re-evaluating a listener's server window, whose offset the server
// already skipped.
query::Query ServerWindow(query::Query q) { return q.Offset(0); }

}  // namespace

FirestoreClient::FirestoreClient(service::FirestoreService* service,
                                 std::string database_id,
                                 std::optional<rules::AuthContext> auth,
                                 Options options)
    : service_(service),
      database_id_(std::move(database_id)),
      auth_(std::move(auth)),
      options_(options) {
  connection_ =
      auth_.has_value()
          ? service_->frontend().OpenConnection(database_id_, *auth_)
          : service_->frontend().OpenPrivilegedConnection(database_id_);
}

FirestoreClient::~FirestoreClient() {
  service_->frontend().CloseConnection(connection_);
}

void FirestoreClient::SetNetworkEnabled(bool enabled) {
  if (enabled == online_) return;
  online_ = enabled;
  if (online_) {
    // Reconnection: flush queued writes, then re-attach listeners so each
    // gets a fresh authoritative snapshot (reconciliation).
    (void)FlushPending();
    for (auto& [id, listener] : listeners_) {
      AttachListener(id, listener);
    }
  } else {
    for (auto& [id, listener] : listeners_) DetachListener(listener);
  }
}

void FirestoreClient::Restart() {
  if (options_.persist_cache) {
    persisted_cache_ = store_.Serialize();
  }
  for (auto& [id, listener] : listeners_) DetachListener(listener);
  listeners_.clear();
  store_.Clear();
  if (options_.persist_cache && !persisted_cache_.empty()) {
    StatusOr<LocalStore> restored = LocalStore::Parse(persisted_cache_);
    if (restored.ok()) {
      store_ = std::move(restored).value();
    } else {
      // Corrupt on-device cache (checksum mismatch): start cold rather than
      // trust it.
      FS_LOG(WARNING) << "discarding corrupt persisted cache: "
                      << restored.status();
    }
  }
}

Status FirestoreClient::EnqueueWrite(Mutation mutation) {
  // Acknowledged immediately after updating the local cache (paper §IV-E);
  // flushing happens asynchronously in Pump.
  store_.Enqueue(std::move(mutation));
  for (auto& [id, listener] : listeners_) DeliverView(listener);
  return Status::Ok();
}

Status FirestoreClient::Set(const ResourcePath& name, Map fields) {
  return EnqueueWrite(Mutation::Set(name, std::move(fields)));
}

Status FirestoreClient::Merge(const ResourcePath& name, Map fields) {
  return EnqueueWrite(Mutation::Merge(name, std::move(fields)));
}

Status FirestoreClient::Delete(const ResourcePath& name) {
  return EnqueueWrite(Mutation::Delete(name));
}

StatusOr<std::optional<Document>> FirestoreClient::Get(
    const ResourcePath& name) {
  bool known = false;
  std::optional<Document> local = store_.OverlayDocument(name, &known);
  if (known) return local;
  if (!online_) {
    return UnavailableError("document not cached and the client is offline");
  }
  StatusOr<std::optional<Document>> remote =
      service_->Get(database_id_, name, /*read_ts=*/0, end_user());
  if (remote.ok()) {
    int64_t ts = remote->has_value() ? (*remote)->update_time() : 0;
    store_.ApplyServerDocument(name, *remote, ts);
  }
  return remote;
}

StatusOr<ViewSnapshot> FirestoreClient::RunQuery(const query::Query& q) {
  ViewSnapshot view;
  view.from_cache = !online_;
  view.has_pending_writes = store_.PendingAffects(q);
  if (online_) {
    StatusOr<backend::RunQueryResult> result = service_->RunQuery(
        database_id_, FullDocuments(q), /*read_ts=*/0, end_user());
    RETURN_IF_ERROR(result.status());
    for (const Document& doc : result->result.documents) {
      store_.ApplyServerDocument(doc.name(), doc, result->read_ts);
    }
    view.snapshot_ts = result->read_ts;
    if (!view.has_pending_writes) {
      // The server already filtered, ordered and cut the result.
      view.documents = std::move(result->result.documents);
      for (Document& doc : view.documents) {
        doc = q.ApplyProjection(std::move(doc));
      }
      return view;
    }
  }
  view.documents = store_.RunLocalQuery(q);
  return view;
}

StatusOr<FirestoreClient::ListenerId> FirestoreClient::OnSnapshot(
    query::Query q, ViewCallback callback) {
  RETURN_IF_ERROR(q.Validate());
  ListenerId id = next_listener_id_++;
  Listener listener;
  listener.query = std::move(q);
  listener.callback = std::move(callback);
  auto [it, inserted] = listeners_.emplace(id, std::move(listener));
  FS_CHECK(inserted);
  if (online_) {
    AttachListener(id, it->second);
    if (!it->second.attached) {
      // Initial listen failed (e.g. permission denied): surface the error.
      Status status = PermissionDeniedError(
          "listen rejected; check security rules");
      listeners_.erase(it);
      return status;
    }
  } else {
    DeliverView(it->second);  // cache-only initial view
  }
  return id;
}

void FirestoreClient::RemoveListener(ListenerId id) {
  auto it = listeners_.find(id);
  if (it == listeners_.end()) return;
  DetachListener(it->second);
  listeners_.erase(it);
}

void FirestoreClient::AttachListener(ListenerId id, Listener& listener) {
  DetachListener(listener);
  StatusOr<frontend::Frontend::TargetId> target =
      service_->frontend().Listen(
          connection_, FullDocuments(listener.query),
          [this, id](const frontend::QuerySnapshot& s) {
            OnServerSnapshot(id, s);
          });
  if (!target.ok()) {
    FS_LOG(WARNING) << "listen failed: " << target.status();
    listener.attached = false;
    return;
  }
  listener.attached = true;
  listener.target = *target;
}

void FirestoreClient::DetachListener(Listener& listener) {
  if (!listener.attached) return;
  (void)service_->frontend().StopListen(connection_, listener.target);
  listener.attached = false;
}

void FirestoreClient::OnServerSnapshot(ListenerId id,
                                       const frontend::QuerySnapshot& s) {
  auto it = listeners_.find(id);
  if (it == listeners_.end()) return;
  Listener& listener = it->second;
  if (!s.error.ok()) {
    // Terminal: the frontend exhausted its out-of-sync recovery budget and
    // removed the target. Fall back to cache-backed views; reconnecting
    // (SetNetworkEnabled) re-attaches.
    FS_LOG(WARNING) << "listen terminated: " << s.error;
    listener.attached = false;
    listener.has_server_snapshot = false;
    DeliverView(listener);
    return;
  }
  if (s.is_reset) listener.server_docs.clear();
  for (const frontend::SnapshotChange& change : s.changes) {
    const std::string name = change.doc.name().CanonicalString();
    if (change.kind == frontend::ChangeKind::kRemoved) {
      // The document left the result: it may have stopped matching rather
      // than been deleted, so the cache forgets it instead of recording it
      // as absent.
      listener.server_docs.erase(name);
      store_.ForgetServerDocument(change.doc.name(), s.snapshot_ts);
    } else {
      listener.server_docs[name] = change.doc;
      store_.ApplyServerDocument(change.doc.name(), change.doc,
                                 s.snapshot_ts);
    }
  }
  listener.server_snapshot_ts = s.snapshot_ts;
  listener.has_server_snapshot = true;
  DeliverView(listener);
}

void FirestoreClient::DeliverView(Listener& listener) {
  ViewSnapshot view;
  view.snapshot_ts = listener.server_snapshot_ts;
  view.from_cache = !listener.has_server_snapshot || !online_;
  view.has_pending_writes = store_.PendingAffects(listener.query);
  listener.shows_pending_writes = view.has_pending_writes;
  if (!listener.has_server_snapshot) {
    view.documents = store_.RunLocalQuery(listener.query);
    listener.callback(view);
    return;
  }
  // The authoritative result window, online or offline (the cache may hold
  // entries older than it), with pending mutations overlaid; Evaluate drops
  // what no longer matches.
  std::map<std::string, Document> docs = listener.server_docs;
  for (const PendingMutation& p : store_.pending()) {
    const std::string name = p.mutation.name.CanonicalString();
    std::optional<Document> overlaid = store_.OverlayDocument(p.mutation.name);
    if (overlaid.has_value()) {
      docs[name] = std::move(*overlaid);
    } else {
      docs.erase(name);
    }
  }
  std::vector<Document> window;
  window.reserve(docs.size());
  for (auto& [name, doc] : docs) window.push_back(std::move(doc));
  view.documents = ServerWindow(listener.query).Evaluate(std::move(window));
  listener.callback(view);
}

Status FirestoreClient::FlushPending() {
  if (service_->clock().NowMicros() < flush_retry_at_) {
    return Status::Ok();  // backing off after a transient failure
  }
  // A listener callback runs inside the commit and may write, which grows
  // the queue, or pump, which would send its front a second time.
  if (flushing_) return Status::Ok();
  flushing_ = true;
  Status status = FlushQueue();
  flushing_ = false;
  return status;
}

Status FirestoreClient::FlushQueue() {
  while (store_.HasPending()) {
    const uint64_t sequence = store_.pending().front().sequence;
    const Mutation mutation = store_.pending().front().mutation;
    Status fault = FS_FAULT_POINT("client.flush");
    StatusOr<backend::CommitResponse> result =
        fault.ok() ? service_->Commit(database_id_, {mutation}, end_user())
                   : StatusOr<backend::CommitResponse>(fault);
    if (result.ok()) {
      ++writes_flushed_;
      flush_retry_at_ = 0;
      flush_prev_backoff_ = 0;
      for (const backend::DocumentChange& change : result->changes) {
        store_.ApplyServerDocument(
            change.name,
            change.deleted ? std::nullopt : change.new_doc,
            result->commit_ts);
      }
      store_.AckThrough(sequence);
      // The server's snapshot of the write can reach a listener during the
      // commit, while the write is still pending: refresh what it shows.
      // By id, since a view's callback may add or remove listeners.
      std::vector<ListenerId> stale;
      for (auto& [id, listener] : listeners_) {
        if (listener.shows_pending_writes &&
            !store_.PendingAffects(listener.query)) {
          stale.push_back(id);
        }
      }
      for (ListenerId id : stale) {
        auto it = listeners_.find(id);
        if (it != listeners_.end()) DeliverView(it->second);
      }
    } else if (IsRetryableWriteStatus(result.status()) ||
               result.status().code() == StatusCode::kDeadlineExceeded) {
      // Transient (mutations are blind last-write-wins, so even an
      // unknown-outcome DEADLINE_EXCEEDED is safe to resend): back off and
      // retry on a later pump, honoring any server retry-after hint. The
      // default policy's max_attempts does not apply: queued writes are
      // already acknowledged locally, so they retry indefinitely with
      // capped backoff ("automatic retry with backoff", paper §III-D).
      Micros delay = NextBackoff(RetryPolicy(), flush_rng_,
                                 &flush_prev_backoff_);
      if (std::optional<Micros> hint = RetryAfterHint(result.status())) {
        delay = std::max(delay, *hint);
      }
      flush_retry_at_ = service_->clock().NowMicros() + delay;
      return result.status();
    } else {
      // Permanent rejection (e.g. permission denied): drop the mutation so
      // the queue does not wedge; local view reconciles to server state.
      ++write_errors_;
      FS_LOG(WARNING) << "dropping rejected write: " << result.status();
      store_.AckThrough(sequence);
      for (auto& [id, listener] : listeners_) DeliverView(listener);
    }
  }
  return Status::Ok();
}

Status FirestoreClient::RunTransaction(const TransactionFn& fn,
                                       int max_attempts) {
  if (!online_) {
    return UnavailableError("transactions require connectivity");
  }
  Status last = AbortedError("no attempts made");
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    ClientTransaction txn(this);
    Status body = fn(txn);
    if (!body.ok()) return body;  // user aborted
    // Attach freshness preconditions for every read document.
    std::vector<Mutation> to_commit = std::move(txn.mutations_);
    for (Mutation& m : to_commit) {
      auto it = txn.read_versions_.find(m.name.CanonicalString());
      if (it != txn.read_versions_.end() &&
          m.precondition == Mutation::Precondition::kNone) {
        m.precondition = Mutation::Precondition::kUpdateTimeEquals;
        m.expected_update_time = it->second;
      }
    }
    if (to_commit.empty()) return Status::Ok();
    StatusOr<backend::CommitResponse> result =
        service_->Commit(database_id_, to_commit, end_user());
    if (result.ok()) {
      for (const backend::DocumentChange& change : result->changes) {
        store_.ApplyServerDocument(
            change.name, change.deleted ? std::nullopt : change.new_doc,
            result->commit_ts);
      }
      return Status::Ok();
    }
    last = result.status();
    if (last.code() != StatusCode::kFailedPrecondition &&
        last.code() != StatusCode::kAborted) {
      return last;  // not a contention failure
    }
  }
  return last;
}

void FirestoreClient::Pump() {
  if (online_) (void)FlushPending();
}

}  // namespace firestore::client
