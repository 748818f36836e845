// The Mobile/Web SDK simulation (paper §III-E, §IV-E): latency-compensated
// reads and writes over a local cache, real-time listeners, fully
// disconnected operation with automatic reconciliation on reconnect, and
// optimistic-concurrency transactions while connected.

#ifndef FIRESTORE_CLIENT_CLIENT_H_
#define FIRESTORE_CLIENT_CLIENT_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/local_store.h"
#include "common/random.h"
#include "service/service.h"

namespace firestore::client {

// The view of a query delivered to onSnapshot listeners.
struct ViewSnapshot {
  std::vector<model::Document> documents;
  // True when local mutations not yet acknowledged by the server are
  // reflected in `documents` (latency compensation).
  bool has_pending_writes = false;
  // True when served from the local cache without server confirmation
  // (offline, or before the first server snapshot).
  bool from_cache = false;
  int64_t snapshot_ts = 0;
};

using ViewCallback = std::function<void(const ViewSnapshot&)>;

class FirestoreClient;

// Optimistic client transaction context ("all data read by the transaction
// is revalidated for freshness at the time of the commit").
class ClientTransaction {
 public:
  StatusOr<std::optional<model::Document>> Get(const model::ResourcePath&);
  void Set(model::ResourcePath name, model::Map fields);
  void Merge(model::ResourcePath name, model::Map fields);
  void Delete(model::ResourcePath name);

 private:
  friend class FirestoreClient;
  explicit ClientTransaction(FirestoreClient* client) : client_(client) {}

  FirestoreClient* client_;
  std::map<std::string, int64_t> read_versions_;  // name -> update_time (0 = absent)
  std::vector<backend::Mutation> mutations_;
};

class FirestoreClient {
 public:
  struct Options {
    // Persist the local cache across Restart() (end-user privacy choice,
    // paper §IV-E).
    bool persist_cache = true;
  };

  // `auth` is the end user of a third-party device, checked against the
  // tenant's security rules; nullopt makes a Server SDK client (no rules).
  FirestoreClient(service::FirestoreService* service, std::string database_id,
                  std::optional<rules::AuthContext> auth, Options options);
  FirestoreClient(service::FirestoreService* service, std::string database_id,
                  std::optional<rules::AuthContext> auth = rules::AuthContext{})
      : FirestoreClient(service, std::move(database_id), std::move(auth),
                        Options()) {}
  ~FirestoreClient();

  FirestoreClient(const FirestoreClient&) = delete;
  FirestoreClient& operator=(const FirestoreClient&) = delete;

  // -- Connectivity --

  // Disables/enables the network. While disabled, reads serve from cache,
  // writes queue locally, and listeners keep firing on local changes.
  void SetNetworkEnabled(bool enabled);
  bool network_enabled() const { return online_; }

  // Simulates an app restart: all in-memory state is dropped; with
  // persist_cache the local cache (including queued offline writes) is
  // restored, giving a warm start.
  void Restart();

  // -- Writes (blind; last-update-wins; acknowledged immediately) --

  Status Set(const model::ResourcePath& name, model::Map fields);
  Status Merge(const model::ResourcePath& name, model::Map fields);
  Status Delete(const model::ResourcePath& name);

  // -- Reads --

  // Cache-first document read; falls through to the server when online and
  // the document is not cached.
  StatusOr<std::optional<model::Document>> Get(
      const model::ResourcePath& name);

  // One-shot query: server when online (cache updated), local cache
  // otherwise.
  StatusOr<ViewSnapshot> RunQuery(const query::Query& q);

  // -- Real-time listeners --

  using ListenerId = uint64_t;
  StatusOr<ListenerId> OnSnapshot(query::Query q, ViewCallback callback);
  void RemoveListener(ListenerId id);

  // -- Transactions (connected only) --

  using TransactionFn = std::function<Status(ClientTransaction&)>;
  Status RunTransaction(const TransactionFn& fn, int max_attempts = 5);

  // Flushes queued mutations (when online) and re-delivers views as needed.
  // The test/sim driver calls service->Pump() separately.
  void Pump();

  // -- Introspection --
  const LocalStore& local_store() const { return store_; }
  int64_t writes_flushed() const { return writes_flushed_; }
  int64_t write_errors() const { return write_errors_; }

 private:
  friend class ClientTransaction;

  struct Listener {
    query::Query query;
    ViewCallback callback;
    // Online plumbing.
    bool attached = false;
    frontend::Frontend::TargetId target = 0;
    // Latest authoritative result window from the frontend (by name), as
    // full documents: views apply the projection.
    std::map<std::string, model::Document> server_docs;
    int64_t server_snapshot_ts = 0;
    bool has_server_snapshot = false;
    // The last view had has_pending_writes set.
    bool shows_pending_writes = false;
  };

  Status EnqueueWrite(backend::Mutation mutation);
  void AttachListener(ListenerId id, Listener& listener);
  void DetachListener(Listener& listener);
  void OnServerSnapshot(ListenerId id, const frontend::QuerySnapshot& s);
  // Recomputes a listener's latency-compensated view (Query::Evaluate over
  // its server window, or over the cache before it has one) and fires its
  // callback.
  void DeliverView(Listener& listener);
  Status FlushPending();
  Status FlushQueue();  // FlushPending's loop
  // The end user every request runs as; null for a Server SDK client.
  const rules::AuthContext* end_user() const {
    return auth_.has_value() ? &*auth_ : nullptr;
  }

  service::FirestoreService* service_;
  std::string database_id_;
  std::optional<rules::AuthContext> auth_;
  Options options_;
  bool online_ = true;
  LocalStore store_;
  std::string persisted_cache_;
  frontend::Frontend::ConnectionId connection_ = 0;
  uint64_t next_listener_id_ = 1;
  std::map<ListenerId, Listener> listeners_;
  int64_t writes_flushed_ = 0;
  int64_t write_errors_ = 0;
  // Flush backoff state: no flush is attempted before flush_retry_at_.
  Rng flush_rng_{0x5eed};
  Micros flush_retry_at_ = 0;
  Micros flush_prev_backoff_ = 0;
  bool flushing_ = false;  // FlushPending is on the stack
};

}  // namespace firestore::client

#endif  // FIRESTORE_CLIENT_CLIENT_H_
