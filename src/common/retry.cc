#include "common/retry.h"

#include <algorithm>
#include <string>

#include "common/metrics.h"

namespace firestore {

namespace {

constexpr std::string_view kRetryAfterTag = "retry-after-us=";
constexpr std::string_view kLockWaitTimeout = "lock wait timeout";

bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

}  // namespace

bool IsRetryableStatus(const Status& s) {
  switch (s.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kAborted:
    case StatusCode::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

bool IsRetryableWriteStatus(const Status& s) {
  if (IsRetryableStatus(s)) return true;
  return s.code() == StatusCode::kDeadlineExceeded &&
         Contains(s.message(), kLockWaitTimeout);
}

Status WithRetryAfter(Status s, Micros retry_after) {
  if (s.ok()) return s;
  std::string message = s.message();
  message += " [";
  message += kRetryAfterTag;
  message += std::to_string(retry_after);
  message += "]";
  return Status(s.code(), std::move(message));
}

std::optional<Micros> RetryAfterHint(const Status& s) {
  std::string_view message = s.message();
  size_t pos = message.find(kRetryAfterTag);
  if (pos == std::string_view::npos) return std::nullopt;
  pos += kRetryAfterTag.size();
  Micros value = 0;
  bool any = false;
  while (pos < message.size() && message[pos] >= '0' &&
         message[pos] <= '9') {
    value = value * 10 + (message[pos] - '0');
    ++pos;
    any = true;
  }
  if (!any) return std::nullopt;
  return value;
}

Micros NextBackoff(const RetryPolicy& policy, Rng& rng, Micros* prev) {
  Micros base = std::max<Micros>(policy.initial_backoff, 1);
  // AWS decorrelated jitter: uniform(base, prev * 3), capped.
  Micros hi = *prev > 0 ? std::max<Micros>(base, *prev * 3) : base;
  Micros next = std::min(rng.Uniform(base, hi),
                         std::max<Micros>(policy.max_backoff, base));
  *prev = next;
  return next;
}

bool RetryState::ShouldRetryClassified(bool retryable, const Status& s,
                                       Micros* delay_out) {
  if (delay_out != nullptr) *delay_out = 0;
  if (s.ok() || !retryable) return false;
  ++attempts_;
  // One retryable failure observed = one attempt counted, whether or not a
  // retry follows; chaos tests cross-check this against fault-point fires.
  FS_METRIC_COUNTER_FOR("retry.attempts", policy_.name).Increment();
  if (attempts_ >= policy_.max_attempts) {
    FS_METRIC_COUNTER_FOR("retry.give_ups", policy_.name).Increment();
    return false;
  }
  Micros delay = NextBackoff(policy_, rng_, &prev_backoff_);
  if (std::optional<Micros> hint = RetryAfterHint(s); hint.has_value()) {
    delay = std::max(delay, *hint);
    prev_backoff_ = std::max(prev_backoff_, delay);
  }
  if (delay_out != nullptr) *delay_out = delay;
  return true;
}

}  // namespace firestore
