#include "common/retry.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace firestore {
namespace {

TEST(RetryClassificationTest, GenericRetryableCodes) {
  EXPECT_TRUE(IsRetryableStatus(UnavailableError("x")));
  EXPECT_TRUE(IsRetryableStatus(AbortedError("x")));
  EXPECT_TRUE(IsRetryableStatus(ResourceExhaustedError("x")));
  EXPECT_FALSE(IsRetryableStatus(DeadlineExceededError("x")));
  EXPECT_FALSE(IsRetryableStatus(NotFoundError("x")));
  EXPECT_FALSE(IsRetryableStatus(PermissionDeniedError("x")));
  EXPECT_FALSE(IsRetryableStatus(Status::Ok()));
}

TEST(RetryClassificationTest, WritePathRetriesLockWaitTimeoutOnly) {
  // A lock-wait timeout happens before any data is applied: safe to retry.
  EXPECT_TRUE(
      IsRetryableWriteStatus(DeadlineExceededError("lock wait timeout")));
  // An unknown-outcome commit may have landed: retrying could duplicate it.
  EXPECT_FALSE(IsRetryableWriteStatus(
      DeadlineExceededError("Spanner commit outcome unknown")));
  EXPECT_TRUE(IsRetryableWriteStatus(AbortedError("wounded")));
}

TEST(RetryHintTest, RoundTripsThroughStatusMessage) {
  Status tagged = WithRetryAfter(ResourceExhaustedError("over limit"), 12345);
  EXPECT_EQ(tagged.code(), StatusCode::kResourceExhausted);
  std::optional<Micros> hint = RetryAfterHint(tagged);
  ASSERT_TRUE(hint.has_value());
  EXPECT_EQ(*hint, 12345);
  EXPECT_FALSE(RetryAfterHint(ResourceExhaustedError("no hint")).has_value());
  EXPECT_TRUE(WithRetryAfter(Status::Ok(), 5).ok());
}

TEST(BackoffTest, DecorrelatedJitterStaysWithinBounds) {
  RetryPolicy policy;
  policy.initial_backoff = 1'000;
  policy.max_backoff = 50'000;
  Rng rng(42);
  Micros prev = 0;
  for (int i = 0; i < 100; ++i) {
    Micros d = NextBackoff(policy, rng, &prev);
    EXPECT_GE(d, policy.initial_backoff);
    EXPECT_LE(d, policy.max_backoff);
  }
}

TEST(BackoffTest, DeterministicPerSeed) {
  RetryPolicy policy;
  auto schedule = [&policy](uint64_t seed) {
    Rng rng(seed);
    Micros prev = 0;
    std::vector<Micros> out;
    for (int i = 0; i < 10; ++i) out.push_back(NextBackoff(policy, rng, &prev));
    return out;
  };
  EXPECT_EQ(schedule(1), schedule(1));
  EXPECT_NE(schedule(1), schedule(2));
}

TEST(RetryStateTest, StopsAtMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  RetryState state(policy, 1);
  EXPECT_TRUE(state.ShouldRetry(UnavailableError("x")));
  EXPECT_TRUE(state.ShouldRetry(UnavailableError("x")));
  EXPECT_FALSE(state.ShouldRetry(UnavailableError("x")));  // 3rd attempt used
  EXPECT_EQ(state.attempts(), 3);
  state.Reset();
  EXPECT_TRUE(state.ShouldRetry(UnavailableError("x")));
}

TEST(RetryStateTest, NonRetryableDoesNotConsumeBudget) {
  RetryState state(RetryPolicy(), 1);
  EXPECT_FALSE(state.ShouldRetry(NotFoundError("x")));
  EXPECT_FALSE(state.ShouldRetry(Status::Ok()));
}

TEST(RetryStateTest, HonorsRetryAfterHintAsLowerBound) {
  RetryPolicy policy;
  policy.initial_backoff = 10;
  policy.max_backoff = 100;
  RetryState state(policy, 1);
  Micros delay = 0;
  Status hinted =
      WithRetryAfter(ResourceExhaustedError("over limit"), 5'000'000);
  EXPECT_TRUE(state.ShouldRetry(hinted, &delay));
  EXPECT_GE(delay, 5'000'000);
}

}  // namespace
}  // namespace firestore
