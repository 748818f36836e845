#include "frontend/frontend.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "firestore/index/layout.h"

namespace firestore::frontend {

using backend::DocumentChange;
using model::Document;
using spanner::Timestamp;

Frontend::Frontend(const Clock* clock, backend::ReadService* reader,
                   rtcache::QueryMatcher* matcher,
                   const rtcache::RangeOwnership* ranges,
                   TenantResolver tenants)
    : Frontend(clock, reader, matcher, ranges, std::move(tenants),
               Options()) {}

Frontend::Frontend(const Clock* clock, backend::ReadService* reader,
                   rtcache::QueryMatcher* matcher,
                   const rtcache::RangeOwnership* ranges,
                   TenantResolver tenants, Options options)
    : clock_(clock),
      reader_(reader),
      matcher_(matcher),
      ranges_(ranges),
      tenants_(std::move(tenants)),
      options_(options),
      snapshots_counter_(FS_METRIC_COUNTER("frontend.snapshots")),
      resets_counter_(FS_METRIC_COUNTER("frontend.resets")) {
  matcher_->SetWatermarkObserver([this] { DeliverDirty(); });
}

Frontend::~Frontend() { matcher_->SetWatermarkObserver(nullptr); }

Frontend::ConnectionId Frontend::OpenConnection(
    const std::string& database_id, rules::AuthContext auth) {
  MutexLock lock(&mu_);
  ConnectionId id = next_id_++;
  connections_[id] = Connection{database_id, std::move(auth), {}};
  return id;
}

Frontend::ConnectionId Frontend::OpenPrivilegedConnection(
    const std::string& database_id) {
  MutexLock lock(&mu_);
  ConnectionId id = next_id_++;
  connections_[id] = Connection{database_id, std::nullopt, {}};
  return id;
}

void Frontend::CloseConnection(ConnectionId connection) {
  std::vector<uint64_t> to_unsubscribe;
  {
    MutexLock lock(&mu_);
    auto it = connections_.find(connection);
    if (it == connections_.end()) return;
    for (TargetId t : std::vector<TargetId>(it->second.targets)) {
      to_unsubscribe.push_back(EraseTargetLocked(t));
    }
    connections_.erase(it);
    dirty_.erase(connection);
    std::erase_if(outbox_, [connection](const Delivery& d) {
      return d.connection == connection;
    });
  }
  for (uint64_t sub : to_unsubscribe) matcher_->Unsubscribe(sub);
  AwaitRunningDelivery();
}

StatusOr<Frontend::TargetId> Frontend::Listen(ConnectionId connection,
                                              query::Query q,
                                              SnapshotCallback callback) {
  FS_SPAN("frontend.listen");
  RETURN_IF_ERROR(q.Validate());
  TargetId id;
  {
    MutexLock lock(&mu_);
    auto conn = connections_.find(connection);
    if (conn == connections_.end()) {
      return NotFoundError("no such connection");
    }
    id = next_id_++;
    Target target;
    target.connection = connection;
    target.database_id = conn->second.database_id;
    target.query = std::move(q);
    target.callback = std::move(callback);
    target.delta_capable =
        target.query.limit() == 0 && target.query.offset() == 0;
    ASSIGN_OR_RETURN(QuerySnapshot initial, ResetTargetLocked(id, target));
    // Queued in the critical section that registers the target, so no
    // later snapshot of it can be delivered first.
    QueueLocked(id, target, std::move(initial));
    conn->second.targets.push_back(id);
    targets_.emplace(id, std::move(target));
  }
  DrainOutbox();
  return id;
}

Status Frontend::StopListen(ConnectionId connection, TargetId target_id) {
  uint64_t sub = 0;
  bool found = false;
  {
    MutexLock lock(&mu_);
    auto it = targets_.find(target_id);
    found = it != targets_.end() && it->second.connection == connection;
    if (found) sub = EraseTargetLocked(target_id);
    // Also drops the terminal error of a target Pump already tore down,
    // and below waits out that error's callback if it is running.
    std::erase_if(outbox_, [&](const Delivery& d) {
      return d.target == target_id && d.connection == connection;
    });
  }
  matcher_->Unsubscribe(sub);
  AwaitRunningDelivery();
  return found ? Status::Ok() : NotFoundError("no such listen target");
}

void Frontend::AwaitRunningDelivery() {
  // On the deliverer's own thread the running callback is the caller.
  if (LockOrderChecker::HeldByThisThread(&deliver_mu_)) return;
  MutexLock turn(&deliver_mu_);
}

void Frontend::QueueLocked(TargetId id, const Target& target,
                           QuerySnapshot snapshot) {
  outbox_.push_back(
      {id, target.connection, target.callback, std::move(snapshot)});
}

uint64_t Frontend::EraseTargetLocked(TargetId id) {
  auto it = targets_.find(id);
  if (it == targets_.end()) return 0;
  const uint64_t sub = it->second.subscription_id;
  by_subscription_.erase(sub);
  resets_.erase(id);
  auto conn = connections_.find(it->second.connection);
  if (conn != connections_.end()) {
    auto& ts = conn->second.targets;
    ts.erase(std::remove(ts.begin(), ts.end(), id), ts.end());
  }
  targets_.erase(it);
  return sub;
}

StatusOr<QuerySnapshot> Frontend::ResetTargetLocked(TargetId id,
                                                    Target& target) {
  RETURN_IF_ERROR(FS_FAULT_POINT("frontend.initial_snapshot"));
  const std::optional<rules::AuthContext>& end_user =
      connections_.at(target.connection).auth;
  const rules::AuthContext* auth = end_user ? &*end_user : nullptr;
  ASSIGN_OR_RETURN(TenantAccess tenant, tenants_(target.database_id, auth));
  // Subscribe to the Query Matchers owning the document-name ranges that
  // cover the query's result set BEFORE taking the snapshot read. A commit
  // landing between the read and the subscription would otherwise be
  // released to the matcher with no subscriber and silently lost — too new
  // for the snapshot, never buffered for the target. Subscribing first
  // closes the window: concurrent deliveries block on mu_ until the reset
  // completes, and OnRangeEvent then discards anything the snapshot
  // already covers (event.ts <= max_commit_version).
  if (target.subscription_id != 0) {
    by_subscription_.erase(target.subscription_id);
    matcher_->Unsubscribe(target.subscription_id);
    target.subscription_id = 0;
  }
  std::string start = index::EntityKeyPrefixForCollection(
      target.database_id, target.query.CollectionPath());
  std::string limit = PrefixSuccessor(start);
  target.ranges = ranges_->RangesCovering(start, limit);
  target.subscription_id = next_id_++;
  by_subscription_[target.subscription_id] = id;
  matcher_->Subscribe(
      target.subscription_id, target.database_id, target.query,
      target.ranges,
      [this](uint64_t sub, const rtcache::RangeEvent& event) {
        OnRangeEvent(sub, event);
      });
  // Step 2 (paper): the Backend runs the query like any other query; the
  // response's timestamp becomes max-commit-version. The target holds full
  // documents (later changes are matched and ordered on them) and projects
  // only what it delivers.
  query::Query read = target.query;
  read.Project({});
  auto initial_or = reader_->RunQuery(target.database_id, *tenant.catalog,
                                      read, /*read_ts=*/0,
                                      tenant.rules.get(), auth);
  if (!initial_or.ok()) {
    // Roll the subscription back so a failed fresh Listen leaks nothing;
    // the out-of-sync retry loop re-subscribes on the next attempt, and
    // its strong read covers whatever was released meanwhile.
    by_subscription_.erase(target.subscription_id);
    matcher_->Unsubscribe(target.subscription_id);
    target.subscription_id = 0;
    return initial_or.status();
  }
  backend::RunQueryResult initial = std::move(initial_or).value();
  target.max_commit_version = initial.read_ts;
  target.results.clear();
  target.pending.clear();
  target.reset_attempts = 0;
  target.reset_retry_at = 0;
  target.reset_prev_backoff = 0;
  QuerySnapshot snapshot;
  snapshot.snapshot_ts = target.max_commit_version;
  snapshot.is_reset = true;
  for (Document& doc : initial.result.documents) {
    target.results.emplace(doc.name().CanonicalString(), doc);
    doc = target.query.ApplyProjection(std::move(doc));
    snapshot.changes.push_back({ChangeKind::kAdded, doc});
  }
  snapshot.documents = std::move(initial.result.documents);
  return snapshot;
}

void Frontend::OnRangeEvent(uint64_t subscription_id,
                            const rtcache::RangeEvent& event) {
  MutexLock lock(&mu_);
  auto sub = by_subscription_.find(subscription_id);
  if (sub == by_subscription_.end()) return;  // already unsubscribed
  auto it = targets_.find(sub->second);
  if (it == targets_.end()) return;
  Target& target = it->second;
  switch (event.type) {
    case rtcache::RangeEvent::Type::kChange:
      // Updates at or before the initial snapshot are already reflected.
      if (event.ts <= target.max_commit_version) return;
      if (!target.delta_capable) {
        // Never a delta: re-run at Pump. The change is committed, so that
        // strong read covers it.
        resets_.insert(it->first);
        return;
      }
      target.pending.emplace(event.ts, event.change);
      dirty_.insert(target.connection);
      break;
    case rtcache::RangeEvent::Type::kOutOfSync:
      resets_.insert(it->first);
      break;
  }
}

void Frontend::DeliverDirty() {
  {
    MutexLock lock(&mu_);
    for (auto it = dirty_.begin(); it != dirty_.end();) {
      auto conn = connections_.find(*it);
      if (conn == connections_.end() ||
          AdvanceConnectionLocked(conn->second)) {
        it = dirty_.erase(it);
      } else {
        ++it;
      }
    }
    if (outbox_.empty()) return;
  }
  DrainOutbox();
}

Timestamp Frontend::RangeWatermarkLocked(const Target& target) const {
  // A watermark W is published only after every release at or below W has
  // finished OnRangeEvent (under mu_), so the target's pending buffer is
  // complete through W. A target subscribed since (by a Listen, or a
  // reset) may use W at once: anything released before its Subscribe was
  // accepted after its Spanner commit, so it has ts <=
  // StrongReadTimestamp() = R, the target's snapshot read, and anything
  // released after it reached the target's buffer.
  Timestamp wm = spanner::kMaxTimestamp;
  for (rtcache::RangeId r : target.ranges) {
    wm = std::min(wm, matcher_->watermark(r));
  }
  return wm;
}

bool Frontend::AdvanceConnectionLocked(const Connection& connection) {
  Timestamp t = spanner::kMaxTimestamp;
  for (TargetId tid : connection.targets) {
    const Target& target = targets_.at(tid);
    // A target awaiting its reset cannot advance: the Changelog discarded
    // part of its update stream, so deltas assembled now would silently
    // skip the gap. It also pins the connection (queries on one connection
    // advance together).
    Timestamp achievable =
        resets_.count(tid) != 0
            ? target.max_commit_version
            : std::max(target.max_commit_version,
                       RangeWatermarkLocked(target));
    t = std::min(t, achievable);
  }
  bool settled = true;
  for (TargetId tid : connection.targets) {
    Target& target = targets_.at(tid);
    if (target.pending.empty()) continue;
    // Every change still pending is above max_commit_version, so a target
    // with one at or below t also has its watermark at t or above.
    if (resets_.count(tid) == 0 && target.pending.begin()->first <= t) {
      QuerySnapshot snapshot = BuildSnapshotLocked(target, t);
      if (!snapshot.changes.empty()) {
        QueueLocked(tid, target, std::move(snapshot));
      }
    }
    settled = settled && target.pending.empty();
  }
  return settled;
}

QuerySnapshot Frontend::BuildSnapshotLocked(Target& target, Timestamp t) {
  // Apply pending changes with commit ts <= t in timestamp order, tracking
  // the net effect per document.
  QuerySnapshot snapshot;
  snapshot.snapshot_ts = t;
  std::map<std::string, DocumentChange> net;
  auto end = target.pending.upper_bound(t);
  // The earliest applied change lends the snapshot its trace context, so
  // that commit's trace covers the delivery below.
  if (target.pending.begin() != end) {
    snapshot.trace = target.pending.begin()->second.trace;
  }
  for (auto it = target.pending.begin(); it != end; ++it) {
    net[it->second.name.CanonicalString()] = it->second;
  }
  for (auto& [name, change] : net) {
    auto existing = target.results.find(name);
    bool was_present = existing != target.results.end();
    bool now_matches =
        change.new_doc.has_value() && target.query.Matches(*change.new_doc);
    if (now_matches) {
      // Suppress no-op modifications (same contents).
      if (!was_present || !(existing->second == *change.new_doc)) {
        snapshot.changes.push_back(
            {was_present ? ChangeKind::kModified : ChangeKind::kAdded,
             target.query.ApplyProjection(*change.new_doc)});
      }
      target.results[name] = *change.new_doc;
    } else if (was_present) {
      snapshot.changes.push_back(
          {ChangeKind::kRemoved,
           target.query.ApplyProjection(existing->second)});
      target.results.erase(existing);
    }
  }
  target.pending.erase(target.pending.begin(), end);
  target.max_commit_version = t;
  // The held results all Match, and only targets without limit or offset
  // assemble deltas (the rest re-run): what is left is order and projection.
  snapshot.documents.reserve(target.results.size());
  for (auto& [name, doc] : target.results) snapshot.documents.push_back(doc);
  std::sort(snapshot.documents.begin(), snapshot.documents.end(),
            [&](const Document& a, const Document& b) {
              return target.query.Compare(a, b) < 0;
            });
  for (Document& doc : snapshot.documents) {
    doc = target.query.ApplyProjection(std::move(doc));
  }
  return snapshot;
}

void Frontend::Pump() {
  std::vector<uint64_t> to_unsubscribe;
  {
    MutexLock lock(&mu_);
    // Failed re-reads retry with backoff; after the retry budget the target
    // is torn down and the listener is told via a terminal error snapshot.
    const Micros now = clock_->NowMicros();
    for (auto it = resets_.begin(); it != resets_.end();) {
      const TargetId id = *it;
      Target& target = targets_.at(id);
      if (now < target.reset_retry_at) {
        ++it;
        continue;
      }
      resets_counter_.Increment();
      StatusOr<QuerySnapshot> snapshot = ResetTargetLocked(id, target);
      if (!snapshot.ok() &&
          ++target.reset_attempts < options_.reset_retry.max_attempts) {
        target.reset_retry_at =
            now + NextBackoff(options_.reset_retry, retry_rng_,
                              &target.reset_prev_backoff);
        ++it;
        continue;
      }
      it = resets_.erase(it);
      if (snapshot.ok()) {
        QueueLocked(id, target, std::move(*snapshot));
        continue;
      }
      // Budget exhausted: surface the failure and drop the target.
      QuerySnapshot failure;
      failure.snapshot_ts = target.max_commit_version;
      failure.error = snapshot.status();
      QueueLocked(id, target, std::move(failure));
      to_unsubscribe.push_back(EraseTargetLocked(id));
    }
  }
  for (uint64_t sub : to_unsubscribe) matcher_->Unsubscribe(sub);
  DeliverDirty();  // connections the resets pinned may advance now
}

void Frontend::DrainOutbox() {
  // Called from a callback (a Listen, a commit): the loop further up this
  // thread's stack delivers what it queued.
  if (LockOrderChecker::HeldByThisThread(&deliver_mu_)) return;
  // Every caller queued its snapshots before waiting for the turn, so a
  // turn delivers at most one batch per waiting thread.
  MutexLock turn(&deliver_mu_);
  for (;;) {
    Delivery delivery;
    {
      MutexLock lock(&mu_);
      if (outbox_.empty()) return;
      delivery = std::move(outbox_.front());
      outbox_.pop_front();
    }
    snapshots_counter_.Increment();
    // Resume the originating commit's trace for the notification leg: this
    // is the write-to-listener latency the paper's Figure 9 measures.
    TraceScope scope(delivery.snapshot.trace);
    FS_SPAN("frontend.deliver");
    delivery.callback(delivery.snapshot);
  }
}

int Frontend::active_targets() const {
  MutexLock lock(&mu_);
  return static_cast<int>(targets_.size());
}

}  // namespace firestore::frontend
