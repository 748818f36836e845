// Unified retry/backoff layer.
//
// The paper resolves contention "by failing and retrying such transactions"
// and the Server SDKs provide "automatic retry with backoff". The
// committer's wound-wait loop, the client SDK's mutation queue and the
// frontend's out-of-sync recovery share one policy type, so budgets,
// backoff shape, and retryable-status classification live in a single
// place. (The client SDK's RunTransaction keeps its own attempt loop.)
//
// Backoff is exponential with decorrelated jitter (the AWS "decorrelated"
// scheme: next = min(cap, uniform(base, prev * 3))), seeded explicitly so
// retry schedules are reproducible.
//
// Admission rejections carry a retry-after hint inside the Status message
// (see WithRetryAfter / RetryAfterHint); RetryState honors the hint as a
// lower bound on the next delay.

#ifndef FIRESTORE_COMMON_RETRY_H_
#define FIRESTORE_COMMON_RETRY_H_

#include <cstdint>
#include <optional>

#include "common/clock.h"
#include "common/random.h"
#include "common/status.h"

namespace firestore {

struct RetryPolicy {
  // Metric label for this policy: RetryState records "retry.attempts" /
  // "retry.give_ups" counters labeled with this name (docs/OBSERVABILITY.md),
  // so chaos runs can attribute retries to the loop that performed them.
  const char* name = "default";
  // Total attempts, including the first (1 = no retries).
  int max_attempts = 5;
  Micros initial_backoff = 10'000;   // 10 ms
  Micros max_backoff = 2'000'000;    // 2 s
};

// Generic transient classification: UNAVAILABLE, ABORTED, and
// RESOURCE_EXHAUSTED (load shedding) are worth retrying.
bool IsRetryableStatus(const Status& s);

// Write-path classification: additionally treats DEADLINE_EXCEEDED as
// retryable when it is a lock-wait timeout (the transaction failed before
// any data was applied). A generic DEADLINE_EXCEEDED — e.g. an
// unknown-outcome Spanner commit — is NOT retryable: the write may have
// landed and a blind retry could duplicate it.
bool IsRetryableWriteStatus(const Status& s);

// Attaches a machine-readable retry-after hint to a Status message;
// RetryAfterHint parses it back. Used by admission control so rejected
// callers know how long to back off.
Status WithRetryAfter(Status s, Micros retry_after);
std::optional<Micros> RetryAfterHint(const Status& s);

// One step of seeded decorrelated-jitter backoff: returns the next delay and
// updates *prev (pass 0 before the first retry). Exposed for callers that
// keep per-entity backoff state (frontend targets, the client mutation
// queue) without a full RetryState.
Micros NextBackoff(const RetryPolicy& policy, Rng& rng, Micros* prev);

// Attempt/backoff bookkeeping for one retryable operation.
class RetryState {
 public:
  RetryState(RetryPolicy policy, uint64_t seed)
      : policy_(policy), rng_(seed) {}

  // Consumes one attempt. Returns true if `s` should be retried within the
  // policy's budget; *delay_out (may be null) receives the backoff to apply
  // first, honoring any retry-after hint in `s`.
  bool ShouldRetry(const Status& s, Micros* delay_out = nullptr) {
    return ShouldRetryClassified(IsRetryableStatus(s), s, delay_out);
  }
  bool ShouldRetryWrite(const Status& s, Micros* delay_out = nullptr) {
    return ShouldRetryClassified(IsRetryableWriteStatus(s), s, delay_out);
  }

  int attempts() const { return attempts_; }
  void Reset() {
    attempts_ = 0;
    prev_backoff_ = 0;
  }

 private:
  bool ShouldRetryClassified(bool retryable, const Status& s,
                             Micros* delay_out);

  RetryPolicy policy_;
  Rng rng_;
  int attempts_ = 0;
  Micros prev_backoff_ = 0;
};

}  // namespace firestore

#endif  // FIRESTORE_COMMON_RETRY_H_
