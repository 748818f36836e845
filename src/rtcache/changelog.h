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

  // Releases the changes to the Query Matcher at once unless an older
  // Prepare on their range is outstanding, and returns once its watermark
  // observer has run.
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

  // Drops a resolved (accepted or expired) Prepare's hold on the
  // watermarks of its ranges.
  void ReleaseHoldLocked(const PendingPrepare& pending) FS_REQUIRES(mu_);
  // Accept's and Tick's advance, after `ranges` lost a hold: raises their
  // watermarks and the idle one, releases to the Query Matcher what they
  // newly cover and then publishes each watermark (docs/realtime_protocol.md).
  // `now` is the clock, or the commit timestamp if that is later.
  void AdvanceLocked(const std::vector<RangeId>& ranges,
                     spanner::Timestamp now) FS_REQUIRES(mu_);
  void MarkOutOfSyncLocked(RangeId range) FS_REQUIRES(mu_);

  const Clock* const clock_;
  const RangeOwnership* const ranges_;
  QueryMatcher* matcher_;

  // Held while the Query Matcher is told of releases, watermarks and
  // out-of-sync marks, so the lock order is the notification order: a
  // watermark never reaches the matcher before the releases it covers, even
  // from concurrent Accept/Tick callers. The matcher's sinks take only the
  // Frontend's mu_, and nothing takes this lock under either.
  mutable Mutex mu_ FS_ACQUIRED_BEFORE("rtcache::QueryMatcher::mu_",
                                       "frontend::Frontend::mu_");
  uint64_t next_token_ FS_GUARDED_BY(mu_) = 1;
  std::map<uint64_t, PendingPrepare> pending_ FS_GUARDED_BY(mu_);
  std::map<RangeId, RangeState> range_states_ FS_GUARDED_BY(mu_);
  // Every outstanding Prepare's min-ts, whatever its ranges (counts).
  std::map<spanner::Timestamp, int> holds_ FS_GUARDED_BY(mu_);
  // Every range is complete through it: at most now, and below every hold.
  spanner::Timestamp idle_watermark_ FS_GUARDED_BY(mu_) = 0;
  // Registry-backed stats (rtcache.*, docs/OBSERVABILITY.md).
  Counter& prepares_counter_;
  Counter& accepts_counter_;
  Counter& out_of_sync_counter_;
  Counter& released_counter_;
};

}  // namespace firestore::rtcache

#endif  // FIRESTORE_RTCACHE_CHANGELOG_H_
