#include "rtcache/changelog.h"

#include <algorithm>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/trace.h"
#include "firestore/index/layout.h"

namespace firestore::rtcache {

using backend::DocumentChange;
using backend::PrepareHandle;
using backend::WriteOutcome;
using spanner::Timestamp;

namespace {

// Grace after a Prepare's max timestamp before its ranges are declared
// out-of-sync ("the maximum timestamp (plus a small margin) sets how long
// the Changelog will wait for the corresponding Accept").
constexpr Micros kAcceptGrace = 500'000;

}  // namespace

Changelog::Changelog(const Clock* clock, const RangeOwnership* ranges,
                     QueryMatcher* matcher)
    : clock_(clock),
      ranges_(ranges),
      matcher_(matcher),
      prepares_counter_(FS_METRIC_COUNTER("rtcache.prepares")),
      accepts_counter_(FS_METRIC_COUNTER("rtcache.accepts")),
      out_of_sync_counter_(FS_METRIC_COUNTER("rtcache.out_of_sync")),
      released_counter_(FS_METRIC_COUNTER("rtcache.released")) {}

StatusOr<PrepareHandle> Changelog::Prepare(
    const std::string& database_id,
    const std::vector<model::ResourcePath>& names,
    Timestamp max_commit_ts) {
  RETURN_IF_ERROR(FS_FAULT_POINT("rtcache.prepare"));
  MutexLock lock(&mu_);
  prepares_counter_.Increment();
  std::vector<RangeId> touched;
  for (const model::ResourcePath& name : names) {
    RangeId r = ranges_->OwnerOf(index::EntityKey(database_id, name));
    if (std::find(touched.begin(), touched.end(), r) == touched.end()) {
      touched.push_back(r);
    }
  }
  // The assigned minimum must exceed every affected range's watermark and
  // previously assigned minimum (so completeness is monotone), and be at
  // least the current time.
  Timestamp m = clock_->NowMicros();
  for (RangeId r : touched) {
    RangeState& state = range_states_[r];
    m = std::max(m, state.last_assigned_min + 1);
    m = std::max(m, state.watermark + 1);
  }
  for (RangeId r : touched) {
    RangeState& state = range_states_[r];
    state.last_assigned_min = m;
    state.outstanding[m] += 1;
  }
  PendingPrepare pending;
  pending.database_id = database_id;
  pending.min_ts = m;
  pending.expiry = max_commit_ts + kAcceptGrace;
  pending.ranges = touched;
  uint64_t token = next_token_++;
  pending_.emplace(token, std::move(pending));
  return PrepareHandle{m, token};
}

void Changelog::Accept(uint64_t token, WriteOutcome outcome,
                       Timestamp commit_ts,
                       const std::vector<DocumentChange>& changes) {
  // A dropped Accept leaves the Prepare pending until its expiry marks the
  // affected ranges out-of-sync — the paper's lost-Accept recovery leg.
  if (FS_FAULT_TRIGGERED("rtcache.accept.drop")) return;
  {
    MutexLock lock(&mu_);
    accepts_counter_.Increment();
    auto it = pending_.find(token);
    if (it == pending_.end()) {
      // The prepare already expired and its ranges were reset; drop.
      return;
    }
    PendingPrepare pending = std::move(it->second);
    pending_.erase(it);
    ReleaseHoldLocked(pending);
    switch (outcome) {
      case WriteOutcome::kFailed:
        break;  // dropped
      case WriteOutcome::kUnknown:
        // Ordering can no longer be guaranteed for these ranges.
        for (RangeId r : pending.ranges) MarkOutOfSyncLocked(r);
        break;
      case WriteOutcome::kSuccess:
        FS_CHECK_GE(commit_ts, pending.min_ts);
        for (const DocumentChange& change : changes) {
          RangeId r = ranges_->OwnerOf(
              index::EntityKey(pending.database_id, change.name));
          range_states_[r].buffer.emplace(
              commit_ts, BufferedChange{pending.database_id, change});
        }
        break;
    }
    // Releasing may now be possible on the affected ranges.
    for (RangeId r : pending.ranges) {
      RangeState& state = range_states_[r];
      Timestamp releasable = state.outstanding.empty()
                                 ? state.watermark
                                 : state.outstanding.begin()->first - 1;
      while (!state.buffer.empty() &&
             state.buffer.begin()->first <= releasable) {
        auto entry = state.buffer.begin();
        notify_queue_.push_back({Notification::Kind::kRelease, r,
                                 entry->first,
                                 std::move(entry->second.database_id),
                                 std::move(entry->second.change)});
        state.buffer.erase(entry);
        released_counter_.Increment();
      }
    }
  }
  DrainNotifications();
}

void Changelog::Tick() {
  {
    MutexLock lock(&mu_);
    Timestamp now = clock_->NowMicros();
    // Expire overdue prepares: their ranges lose ordering guarantees.
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.expiry >= now) {
        ++it;
        continue;
      }
      ReleaseHoldLocked(it->second);
      for (RangeId r : it->second.ranges) MarkOutOfSyncLocked(r);
      it = pending_.erase(it);
    }
    // Advance watermarks and release complete prefixes.
    for (RangeId r = 0; r < ranges_->num_ranges(); ++r) {
      RangeState& state = range_states_[r];
      Timestamp w = state.outstanding.empty()
                        ? std::max(state.watermark, now)
                        : std::max(state.watermark,
                                   state.outstanding.begin()->first - 1);
      state.watermark = w;
      while (!state.buffer.empty() && state.buffer.begin()->first <= w) {
        auto entry = state.buffer.begin();
        notify_queue_.push_back({Notification::Kind::kRelease, r,
                                 entry->first,
                                 std::move(entry->second.database_id),
                                 std::move(entry->second.change)});
        state.buffer.erase(entry);
        released_counter_.Increment();
      }
      notify_queue_.push_back(
          {Notification::Kind::kWatermark, r, w, {}, {}});
    }
  }
  DrainNotifications();
}

void Changelog::ReleaseHoldLocked(const PendingPrepare& pending) {
  for (RangeId r : pending.ranges) {
    std::map<Timestamp, int>& outstanding = range_states_[r].outstanding;
    auto out = outstanding.find(pending.min_ts);
    if (out != outstanding.end() && --out->second == 0) {
      outstanding.erase(out);
    }
  }
}

void Changelog::MarkOutOfSyncLocked(RangeId range) {
  RangeState& state = range_states_[range];
  state.buffer.clear();
  // Other Prepares on the range keep their holds on the watermark: one may
  // have committed below "now" with its Accept still on the way, and its
  // release must not arrive behind a published watermark (a Frontend
  // would drop it as already covered by its snapshot).
  out_of_sync_counter_.Increment();
  notify_queue_.push_back(
      {Notification::Kind::kOutOfSync, range, state.watermark, {}, {}});
}

void Changelog::DrainNotifications() {
  {
    MutexLock lock(&mu_);
    // The active drainer re-checks the queue after every entry, so anything
    // we just enqueued will be fired by it, in order.
    if (notifying_) return;
    notifying_ = true;
  }
  for (;;) {
    Notification n;
    {
      MutexLock lock(&mu_);
      if (notify_queue_.empty()) {
        notifying_ = false;
        return;
      }
      n = std::move(notify_queue_.front());
      notify_queue_.pop_front();
    }
    switch (n.kind) {
      case Notification::Kind::kRelease: {
        // Resume the originating commit's trace across the async hop: the
        // context rode in on the buffered DocumentChange, possibly long
        // after the committing thread returned.
        TraceScope scope(n.change.trace);
        FS_SPAN("rtcache.release");
        matcher_->OnDocumentChange(n.database_id, n.range, n.ts, n.change);
        break;
      }
      case Notification::Kind::kWatermark:
        matcher_->OnWatermark(n.range, n.ts);
        break;
      case Notification::Kind::kOutOfSync:
        matcher_->OnOutOfSync(n.range);
        break;
    }
  }
}

}  // namespace firestore::rtcache
