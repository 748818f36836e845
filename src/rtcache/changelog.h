// In-memory Changelog tasks (paper §IV-D4, Figure 5).
//
// The Changelog is the Real-time Cache's 2PC participant for writes. For
// each document-name range it:
//  - assigns minimum commit timestamps to Prepares and remembers them,
//  - on Accept, buffers the committed mutations sorted by timestamp, raises
//    the range's completeness watermark (all Prepares with min-ts below it
//    resolved) and releases to the Query Matcher, at once, the buffer
//    prefix it covers,
//  - keeps one shared idle watermark, now capped below every outstanding
//    Prepare, that every range is complete through; a range's own
//    watermark is published only where it is higher, so a heartbeat costs
//    the same for any number of ranges,
//  - marks a range out-of-sync when a Prepare expires without an Accept or
//    an Accept reports an unknown outcome.

#ifndef FIRESTORE_RTCACHE_CHANGELOG_H_
#define FIRESTORE_RTCACHE_CHANGELOG_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "backend/types.h"
#include "common/metrics.h"
#include "common/thread_annotations.h"
#include "common/clock.h"
#include "rtcache/query_matcher.h"
#include "rtcache/range_ownership.h"

namespace firestore::rtcache {

class Changelog : public backend::RealTimeParticipant {
 public:
  Changelog(const Clock* clock, const RangeOwnership* ranges,
            QueryMatcher* matcher);

  // -- RealTimeParticipant --
  StatusOr<backend::PrepareHandle> Prepare(
      const std::string& database_id,
      const std::vector<model::ResourcePath>& names,
      spanner::Timestamp max_commit_ts) override;

  // Releases the changes at once unless an older Prepare on their range is
  // outstanding, and returns once they have reached the Query Matcher and
  // its watermark observer has run.
  void Accept(uint64_t token, backend::WriteOutcome outcome,
              spanner::Timestamp commit_ts,
              const std::vector<backend::DocumentChange>& changes) override;

  // Heartbeat pump ("Changelog tasks generate a heartbeat every few
  // milliseconds for every idle key range"): expires overdue Prepares and
  // raises the idle watermark to now.
  void Tick();

 private:
  struct PendingPrepare {
    std::string database_id;
    spanner::Timestamp min_ts = 0;
    spanner::Timestamp expiry = 0;  // max ts + grace
    std::vector<RangeId> ranges;
  };

  struct BufferedChange {
    std::string database_id;
    backend::DocumentChange change;
  };

  struct RangeState {
    // Outstanding prepare min-timestamps (multiset semantics via map
    // token -> min_ts handled globally; here we track counts per min_ts).
    std::map<spanner::Timestamp, int> outstanding;  // min_ts -> count
    // Committed mutations not yet released, sorted by commit timestamp.
    std::multimap<spanner::Timestamp, BufferedChange> buffer;
    spanner::Timestamp watermark = 0;
    spanner::Timestamp last_assigned_min = 0;
  };

  // A state mutation and the notification it implies are enqueued in the
  // same critical section, so queue order equals logical order. A single
  // active drainer fires entries FIFO outside the lock; this guarantees a
  // watermark never reaches the Query Matcher before the releases and
  // out-of-sync marks it covers — concurrent Accept/Tick callers firing
  // independently could otherwise let a Frontend claim a snapshot
  // timestamp whose mutations are still in flight on another thread.
  // Accept and Tick return once their own entries have fired, so no
  // notification may call back into the Changelog.
  struct Notification {
    enum class Kind { kRelease, kWatermark, kOutOfSync };
    Kind kind = Kind::kWatermark;
    RangeId range = 0;
    spanner::Timestamp ts = 0;
    std::string database_id;            // kRelease only
    backend::DocumentChange change;     // kRelease only
  };

  // Drops a resolved (accepted or expired) Prepare's hold on the
  // watermarks of its ranges.
  void ReleaseHoldLocked(const PendingPrepare& pending) FS_REQUIRES(mu_);
  // Accept's and Tick's advance, after `ranges` lost a hold: raises their
  // watermarks and the idle one, releases what they newly cover and queues
  // each watermark behind its releases (docs/realtime_protocol.md). `now`
  // is the clock, or the commit timestamp if that is later.
  void AdvanceLocked(const std::vector<RangeId>& ranges,
                     spanner::Timestamp now) FS_REQUIRES(mu_);
  void MarkOutOfSyncLocked(RangeId range) FS_REQUIRES(mu_);
  void DrainNotifications() FS_EXCLUDES(mu_);
  void Fire(const Notification& n) FS_EXCLUDES(mu_);

  const Clock* const clock_;
  const RangeOwnership* const ranges_;
  QueryMatcher* matcher_;

  mutable Mutex mu_;
  uint64_t next_token_ FS_GUARDED_BY(mu_) = 1;
  std::map<uint64_t, PendingPrepare> pending_ FS_GUARDED_BY(mu_);
  std::map<RangeId, RangeState> range_states_ FS_GUARDED_BY(mu_);
  // Every outstanding Prepare's min-ts, whatever its ranges (counts).
  std::map<spanner::Timestamp, int> holds_ FS_GUARDED_BY(mu_);
  // Every range is complete through it: at most now, and below every hold.
  spanner::Timestamp idle_watermark_ FS_GUARDED_BY(mu_) = 0;
  std::deque<Notification> notify_queue_ FS_GUARDED_BY(mu_);
  uint64_t fired_ FS_GUARDED_BY(mu_) = 0;  // entries ever fired
  bool notifying_ FS_GUARDED_BY(mu_) = false;
  CondVar drained_;  // a drainer stopped
  // Registry-backed stats (rtcache.*, docs/OBSERVABILITY.md).
  Counter& prepares_counter_;
  Counter& accepts_counter_;
  Counter& out_of_sync_counter_;
  Counter& released_counter_;
};

}  // namespace firestore::rtcache

#endif  // FIRESTORE_RTCACHE_CHANGELOG_H_
