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
  // The assigned minimum must exceed every affected range's watermark, the
  // idle watermark and the range's previously assigned minimum (so
  // completeness is monotone), and be at least the current time.
  Timestamp m = std::max(clock_->NowMicros(), idle_watermark_ + 1);
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
  holds_[m] += 1;
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
    AdvanceLocked(pending.ranges, std::max(clock_->NowMicros(), commit_ts));
  }
  // Only now, holding no lock: the observer may run listener callbacks,
  // and one that commits takes mu_.
  matcher_->AnnounceWatermarks();
}

void Changelog::Tick() {
  {
    MutexLock lock(&mu_);
    Timestamp now = clock_->NowMicros();
    // Expire overdue prepares: their ranges lose ordering guarantees.
    std::vector<RangeId> expired;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.expiry >= now) {
        ++it;
        continue;
      }
      ReleaseHoldLocked(it->second);
      for (RangeId r : it->second.ranges) {
        MarkOutOfSyncLocked(r);
        expired.push_back(r);
      }
      it = pending_.erase(it);
    }
    AdvanceLocked(expired, now);
  }
  matcher_->AnnounceWatermarks();
}

void Changelog::ReleaseHoldLocked(const PendingPrepare& pending) {
  auto drop = [&](std::map<Timestamp, int>& holds) {
    auto hold = holds.find(pending.min_ts);
    if (hold != holds.end() && --hold->second == 0) holds.erase(hold);
  };
  for (RangeId r : pending.ranges) drop(range_states_[r].outstanding);
  drop(holds_);
}

void Changelog::AdvanceLocked(const std::vector<RangeId>& ranges,
                              Timestamp now) {
  // Computed first, published last: every change at or below it is either
  // released already or on `ranges`, whose releases run below.
  Timestamp idle = holds_.empty()
                       ? now
                       : std::min(now, holds_.begin()->first - 1);
  idle = std::max(idle_watermark_, idle);
  for (RangeId r : ranges) {
    RangeState& state = range_states_[r];
    Timestamp w = now;
    if (!state.outstanding.empty()) {
      w = state.outstanding.begin()->first - 1;
    } else if (!state.buffer.empty()) {
      // With no hold left every buffered change is complete, also one whose
      // commit timestamp ran ahead of the clock.
      w = std::max(now, state.buffer.rbegin()->first);
    }
    state.watermark = std::max(state.watermark, w);
    while (!state.buffer.empty() &&
           state.buffer.begin()->first <= state.watermark) {
      auto entry = state.buffer.begin();
      {
        // Resume the originating commit's trace: the context rode in on the
        // buffered DocumentChange, and another thread's Accept or Tick may
        // release it.
        TraceScope scope(entry->second.change.trace);
        FS_SPAN("rtcache.release");
        matcher_->OnDocumentChange(entry->second.database_id, r, entry->first,
                                   entry->second.change);
      }
      state.buffer.erase(entry);
      released_counter_.Increment();
    }
    // Where the idle watermark covers the range, it speaks for it.
    if (state.watermark > idle) matcher_->OnWatermark(r, state.watermark);
  }
  if (idle > idle_watermark_) {
    idle_watermark_ = idle;
    matcher_->OnWatermark(kEveryRange, idle);
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
  matcher_->OnOutOfSync(range);
}

}  // namespace firestore::rtcache
