// Frontend tasks (paper §IV-D4): terminate long-lived client connections,
// obtain initial query snapshots from the Backend, subscribe to the Query
// Matcher tasks covering each query's result set, and assemble incremental,
// timestamp-consistent snapshots from the per-range update streams.
//
// Consistency rules implemented here:
//  - a query only advances to timestamp t once every subscribed range's
//    watermark reaches t (all updates <= t received);
//  - queries multiplexed on one connection advance together: an update to t
//    is delivered only when every query on the connection can reach t
//    (paper: "queries on the same connection are only updated to a
//    timestamp t once all queries' max-commit-version has reached at
//    least t");
//  - an out-of-sync range resets the affected queries: accumulated state is
//    discarded and the initial-snapshot path re-runs.
//
// Delivery follows the commit: each published watermark advances the
// connections a relevant change made dirty. Every snapshot goes through one
// FIFO outbox, delivered by whichever thread holds the delivery turn, so
// callbacks never overlap, may run on the committing thread, and reach each
// target in order.

#ifndef FIRESTORE_FRONTEND_FRONTEND_H_
#define FIRESTORE_FRONTEND_FRONTEND_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "backend/read_service.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/trace.h"
#include "firestore/query/query.h"
#include "firestore/rules/rules.h"
#include "rtcache/changelog.h"
#include "rtcache/query_matcher.h"
#include "rtcache/range_ownership.h"

namespace firestore::frontend {

// Per-database state the Frontend needs to serve one connection's query.
struct TenantAccess {
  index::IndexCatalog* catalog = nullptr;
  std::shared_ptr<const rules::RuleSet> rules;  // null => privileged access
  // Keeps the tenant that owns `catalog` alive while this access is in
  // scope (the tenant may be deleted concurrently).
  std::shared_ptr<const void> keepalive;
};

// Resolves a database for a caller: a null `auth` is privileged; an end
// user gets the rules to enforce, or an error (PERMISSION_DENIED).
using TenantResolver = std::function<StatusOr<TenantAccess>(
    const std::string& database_id, const rules::AuthContext* auth)>;

enum class ChangeKind { kAdded, kModified, kRemoved };

struct SnapshotChange {
  ChangeKind kind = ChangeKind::kAdded;
  model::Document doc;  // for kRemoved, the last known contents
};

// One timestamped snapshot of a real-time query (paper §III-C): the delta
// from the previous snapshot plus the full result for convenience.
struct QuerySnapshot {
  spanner::Timestamp snapshot_ts = 0;
  // True for the initial snapshot and after an out-of-sync reset: `changes`
  // then lists every current document as kAdded.
  bool is_reset = false;
  std::vector<SnapshotChange> changes;
  std::vector<model::Document> documents;  // full result, query order
  // Terminal failure: set when out-of-sync recovery exhausted its retry
  // budget. The listen target has been removed; no further snapshots follow.
  Status error;
  // Trace context of the commit that produced this snapshot's first applied
  // change, so the notification leg (frontend.deliver) lands in the same
  // trace as the originating write. Inert for initial/reset snapshots.
  Trace::Context trace;
};

using SnapshotCallback = std::function<void(const QuerySnapshot&)>;

class Frontend {
 public:
  using ConnectionId = uint64_t;
  using TargetId = uint64_t;

  struct Options {
    // Budget and backoff for re-running an out-of-sync target's initial
    // snapshot. After max_attempts consecutive failures the target is torn
    // down and the listener receives a QuerySnapshot with `error` set.
    RetryPolicy reset_retry;
    uint64_t retry_seed = 0x5eed;
  };

  Frontend(const Clock* clock, backend::ReadService* reader,
           rtcache::QueryMatcher* matcher,
           const rtcache::RangeOwnership* ranges, TenantResolver tenants);
  Frontend(const Clock* clock, backend::ReadService* reader,
           rtcache::QueryMatcher* matcher,
           const rtcache::RangeOwnership* ranges, TenantResolver tenants,
           Options options);
  ~Frontend();

  // Opens a long-lived connection for one end user to one database; the
  // tenant's security rules authorize every query with this auth context.
  ConnectionId OpenConnection(const std::string& database_id,
                              rules::AuthContext auth = {});
  // Privileged (Server SDK) connection: security rules are bypassed.
  ConnectionId OpenPrivilegedConnection(const std::string& database_id);
  void CloseConnection(ConnectionId connection);

  // Registers a real-time query. The initial snapshot is delivered before
  // Listen returns, unless Listen is called from a callback: then after
  // that callback returns.
  StatusOr<TargetId> Listen(ConnectionId connection, query::Query q,
                            SnapshotCallback callback);
  // After StopListen returns, no callback of the target runs, except one
  // that called it: a callback running on another thread is waited for.
  // The same holds for CloseConnection and every target of the connection.
  Status StopListen(ConnectionId connection, TargetId target);

  // Re-runs the targets that need it: out-of-sync ones and limit/offset
  // ones with a relevant change, with backoff between failed attempts.
  // Call after Changelog::Tick().
  void Pump();

  int active_targets() const;

 private:
  struct Target {
    ConnectionId connection = 0;
    std::string database_id;
    query::Query query;
    SnapshotCallback callback;
    uint64_t subscription_id = 0;
    std::vector<rtcache::RangeId> ranges;
    // Snapshot the client has seen (max-commit-version).
    spanner::Timestamp max_commit_version = 0;
    // Current result set, keyed by canonical document name. Full documents:
    // the query's projection applies only to what is delivered.
    std::map<std::string, model::Document> results;
    // Buffered relevant changes by commit timestamp.
    std::multimap<spanner::Timestamp, backend::DocumentChange> pending;
    // Queries with limit/offset are re-run on every relevant change (the
    // frontend cannot know which document enters a truncated result set).
    bool delta_capable = true;
    // Out-of-sync recovery state: consecutive failed reset attempts, the
    // earliest time the next attempt may run, and the backoff memory.
    int reset_attempts = 0;
    Micros reset_retry_at = 0;
    Micros reset_prev_backoff = 0;
  };

  struct Connection {
    std::string database_id;
    std::optional<rules::AuthContext> auth;  // nullopt => privileged
    std::vector<TargetId> targets;
  };

  // A snapshot waiting in the outbox for its target's callback.
  struct Delivery {
    TargetId target = 0;
    ConnectionId connection = 0;
    SnapshotCallback callback;
    QuerySnapshot snapshot;
  };

  // Runs the query's initial snapshot and (re)subscribes. Fills result set
  // and max_commit_version; returns the snapshot to deliver.
  StatusOr<QuerySnapshot> ResetTargetLocked(TargetId id, Target& target)
      FS_REQUIRES(mu_);

  // Forgets a target; returns its subscription, which the caller drops
  // outside mu_ (0 if it has none).
  uint64_t EraseTargetLocked(TargetId id) FS_REQUIRES(mu_);

  // Min published watermark across the target's subscribed ranges.
  spanner::Timestamp RangeWatermarkLocked(const Target& target) const
      FS_REQUIRES(mu_);

  void OnRangeEvent(uint64_t subscription_id,
                    const rtcache::RangeEvent& event);
  // The QueryMatcher's watermark observer, and Pump's last step. A
  // connection stays dirty while a target on it still holds changes.
  void DeliverDirty() FS_EXCLUDES(mu_);
  // Queues the connection's snapshots; returns whether every target on it
  // is left with no change.
  bool AdvanceConnectionLocked(const Connection& connection)
      FS_REQUIRES(mu_);

  QuerySnapshot BuildSnapshotLocked(Target& target, spanner::Timestamp t)
      FS_REQUIRES(mu_);

  void QueueLocked(TargetId id, const Target& target, QuerySnapshot snapshot)
      FS_REQUIRES(mu_);
  // Takes the delivery turn and fires the outbox FIFO, outside mu_, until
  // it is empty; returns at once inside a callback, whose deliverer further
  // up the stack fires what it queued (docs/realtime_protocol.md, "Delivery
  // contract").
  void DrainOutbox() FS_EXCLUDES(mu_);
  // Waits out a callback another thread is running; StopListen and
  // CloseConnection call it after dropping their queued snapshots.
  void AwaitRunningDelivery() FS_EXCLUDES(mu_);

  const Clock* const clock_;
  backend::ReadService* const reader_;
  rtcache::QueryMatcher* matcher_;
  const rtcache::RangeOwnership* const ranges_;
  const TenantResolver tenants_;
  const Options options_;

  // The delivery turn: held by the one thread firing the outbox, across
  // each callback.
  Mutex deliver_mu_;
  // Held across snapshot construction and target resets, which fan out into
  // the cache, index, storage, and billing layers; every mutex reachable
  // from under it is declared here (string targets: the members are private
  // to their classes). spanner::TimestampOracle::mu_ is covered transitively
  // via Database::data_mu_'s own declaration.
  mutable Mutex mu_ FS_ACQUIRED_AFTER(deliver_mu_) FS_ACQUIRED_BEFORE(
      "backend::BillingLedger::mu_", "spanner::Database::data_mu_",
      "firestore::index::IndexCatalog::mu_", "spanner::LockManager::mu_",
      "rtcache::QueryMatcher::mu_");
  Rng retry_rng_ FS_GUARDED_BY(mu_){options_.retry_seed};
  uint64_t next_id_ FS_GUARDED_BY(mu_) = 1;
  std::map<ConnectionId, Connection> connections_ FS_GUARDED_BY(mu_);
  std::map<TargetId, Target> targets_ FS_GUARDED_BY(mu_);
  std::map<uint64_t, TargetId> by_subscription_ FS_GUARDED_BY(mu_);
  // Connections with a target holding changes a watermark may release.
  std::set<ConnectionId> dirty_ FS_GUARDED_BY(mu_);
  // Targets Pump must re-run. Each pins its connection meanwhile.
  std::set<TargetId> resets_ FS_GUARDED_BY(mu_);
  std::deque<Delivery> outbox_ FS_GUARDED_BY(mu_);
  // Registry-backed stats (frontend.*, docs/OBSERVABILITY.md).
  Counter& snapshots_counter_;
  Counter& resets_counter_;
};

}  // namespace firestore::frontend

#endif  // FIRESTORE_FRONTEND_FRONTEND_H_
