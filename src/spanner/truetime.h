// Commit-timestamp allocation.
//
// Spanner assigns globally-consistent, causally-ordered commit timestamps via
// TrueTime (paper §IV-D1/§IV-D4 rely on this). In a single process a
// monotone timestamp oracle gives the same order, with no uncertainty
// interval and no commit wait.

#ifndef FIRESTORE_SPANNER_TRUETIME_H_
#define FIRESTORE_SPANNER_TRUETIME_H_

#include <limits>

#include "common/clock.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace firestore::spanner {

// Commit timestamps are microseconds (shared epoch with Clock).
using Timestamp = int64_t;

inline constexpr Timestamp kMaxTimestamp =
    std::numeric_limits<int64_t>::max();

// Allocates strictly-increasing commit timestamps that are >= real time and
// respect a caller-supplied [min_allowed, max_allowed] window (the window is
// how the Firestore Backend coordinates with the Real-time Cache's Prepare
// responses, paper §IV-D2 steps 5-6).
class TimestampOracle {
 public:
  explicit TimestampOracle(const Clock* clock) : clock_(clock) {}

  // Returns ABORTED if the allocation floor exceeds max_allowed.
  StatusOr<Timestamp> Allocate(Timestamp min_allowed, Timestamp max_allowed);

  // Latest timestamp handed out (0 if none). A snapshot read at or below
  // this value sees a stable prefix of commits.
  Timestamp last_allocated() const;

  // A strong read timestamp: now, but never below the last commit.
  Timestamp StrongReadTimestamp() const;

 private:
  const Clock* const clock_;
  mutable Mutex mu_;
  mutable Timestamp last_ FS_GUARDED_BY(mu_) = 0;
};

}  // namespace firestore::spanner

#endif  // FIRESTORE_SPANNER_TRUETIME_H_
