// Unified retry/backoff layer.
//
// The paper resolves contention "by failing and retrying such transactions"
// and the Server SDKs provide "automatic retry with backoff"; every retry
// loop in this repository (the committer's wound-wait loop, the client SDK's
// mutation queue, the frontend's out-of-sync recovery, admission-rejection
// handling) goes through one policy type so budgets, backoff shape, and
// retryable-status classification live in a single place.
//
// Backoff is exponential with decorrelated jitter (the AWS "decorrelated"
// scheme: next = min(cap, uniform(base, prev * 3))), seeded explicitly so
// retry schedules are reproducible. Deadlines are absolute Micros values on
// the caller's injected Clock, so the discrete-event simulation and the
// ManualClock tests exercise deadline expiry deterministically.
//
// Admission rejections carry a retry-after hint inside the Status message
// (see WithRetryAfter / RetryAfterHint); RetryState honors the hint as a
// lower bound on the next delay.

#ifndef FIRESTORE_COMMON_RETRY_H_
#define FIRESTORE_COMMON_RETRY_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

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
  double multiplier = 2.0;
  // Decorrelated jitter; false gives plain truncated exponential backoff.
  bool decorrelated_jitter = true;
  // Absolute deadline on the injected Clock (0 = none): a retry whose delay
  // would land past the deadline is not attempted.
  Micros deadline = 0;
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
  RetryState(RetryPolicy policy, const Clock* clock, uint64_t seed)
      : policy_(policy), clock_(clock), rng_(seed) {}

  // Consumes one attempt. Returns true if `s` should be retried within the
  // policy's budget and deadline; *delay_out (may be null) receives the
  // backoff to apply first, honoring any retry-after hint in `s`.
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
  const Clock* clock_;
  Rng rng_;
  int attempts_ = 0;
  Micros prev_backoff_ = 0;
};

// Runs `fn` (returning Status) under `policy`. Between attempts the delay is
// passed to `sleep` when provided; with a null sleeper the delay is virtual
// (attempt counting and deadline checks still apply), which is what
// ManualClock-driven tests and the simulation want.
template <typename Fn>
Status RetryLoop(const RetryPolicy& policy, const Clock* clock, uint64_t seed,
                 Fn&& fn, const std::function<void(Micros)>& sleep = nullptr) {
  RetryState state(policy, clock, seed);
  while (true) {
    Status s = fn();
    Micros delay = 0;
    if (s.ok() || !state.ShouldRetry(s, &delay)) return s;
    if (sleep) sleep(delay);
  }
}

}  // namespace firestore

#endif  // FIRESTORE_COMMON_RETRY_H_
