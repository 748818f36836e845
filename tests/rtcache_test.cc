#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "rtcache/changelog.h"
#include "rtcache/query_matcher.h"
#include "rtcache/range_ownership.h"
#include "tests/test_support.h"

namespace firestore::rtcache {
namespace {

using backend::DocumentChange;
using backend::WriteOutcome;
using model::Document;
using model::Value;
using spanner::Timestamp;
using testing::CounterValue;
using testing::Field;
using testing::Path;

DocumentChange MakeChange(const std::string& path, int64_t v) {
  DocumentChange change;
  change.name = Path(path);
  Document doc(change.name, {{"v", Value::Integer(v)}});
  change.new_doc = std::move(doc);
  return change;
}

// ---------------------------------------------------------------------------
// RangeOwnership

TEST(RangeOwnershipTest, UniformCoversKeySpace) {
  RangeOwnership ranges = RangeOwnership::Uniform(8);
  EXPECT_EQ(ranges.num_ranges(), 8);
  EXPECT_EQ(ranges.OwnerOf(std::string(1, '\x00')), 0);
  EXPECT_EQ(ranges.OwnerOf(std::string(1, '\xff')), 7);
  // Ownership is monotone in the key.
  int prev = 0;
  for (int b = 0; b < 256; ++b) {
    int owner = ranges.OwnerOf(std::string(1, static_cast<char>(b)));
    EXPECT_GE(owner, prev);
    prev = owner;
  }
}

TEST(RangeOwnershipTest, RangesCoveringSpansAndClamps) {
  RangeOwnership ranges = RangeOwnership::Uniform(4);
  // Splits at 0x40, 0x80, 0xc0.
  auto all = ranges.RangesCovering("", "");
  EXPECT_EQ(all.size(), 4u);
  auto first = ranges.RangesCovering("", std::string(1, '\x10'));
  EXPECT_EQ(first, (std::vector<RangeId>{0}));
  auto middle =
      ranges.RangesCovering(std::string(1, '\x45'), std::string(1, '\x85'));
  EXPECT_EQ(middle, (std::vector<RangeId>{1, 2}));
  // Limit exactly on a split point does not include the upper range.
  auto edge = ranges.RangesCovering(std::string(1, '\x45'),
                                    std::string(1, '\x80'));
  EXPECT_EQ(edge, (std::vector<RangeId>{1}));
}

TEST(RangeOwnershipTest, ReshardingBumpsGeneration) {
  RangeOwnership ranges = RangeOwnership::Uniform(2);
  int64_t g0 = ranges.generation();
  ranges.SetSplitPoints({"m"});
  EXPECT_GT(ranges.generation(), g0);
  EXPECT_EQ(ranges.OwnerOf("a"), 0);
  EXPECT_EQ(ranges.OwnerOf("z"), 1);
}

// ---------------------------------------------------------------------------
// Changelog + QueryMatcher

class RtFixture : public ::testing::Test {
 protected:
  RtFixture()
      : clock_(1'000'000),
        ranges_(RangeOwnership::Uniform(1)),  // single range for determinism
        changelog_(&clock_, &ranges_, &matcher_) {
    query_ = query::Query(model::ResourcePath(), "docs");
    matcher_.Subscribe(
        1, "db", query_, {0},
        [this](uint64_t id, const RangeEvent& event) {
          (void)id;
          events_.push_back(event);
        });
  }

  std::vector<RangeEvent> ChangeEvents() const {
    std::vector<RangeEvent> out;
    for (const RangeEvent& e : events_) {
      if (e.type == RangeEvent::Type::kChange) out.push_back(e);
    }
    return out;
  }
  bool SawOutOfSync() const {
    for (const RangeEvent& e : events_) {
      if (e.type == RangeEvent::Type::kOutOfSync) return true;
    }
    return false;
  }
  // The single range's published watermark.
  Timestamp LastWatermark() const { return matcher_.watermark(0); }

  ManualClock clock_;
  RangeOwnership ranges_;
  QueryMatcher matcher_;
  Changelog changelog_;
  query::Query query_;
  std::vector<RangeEvent> events_;
};

TEST_F(RtFixture, PrepareAssignsIncreasingMinTimestamps) {
  auto p1 = changelog_.Prepare("db", {Path("/docs/a")}, clock_.NowMicros() +
                                                            1'000'000);
  auto p2 = changelog_.Prepare("db", {Path("/docs/b")}, clock_.NowMicros() +
                                                            1'000'000);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_GT(p2->min_commit_ts, p1->min_commit_ts);
  EXPECT_GE(p1->min_commit_ts, clock_.NowMicros());
}

TEST_F(RtFixture, AcceptedMutationsReleasedInTimestampOrder) {
  Timestamp max_ts = clock_.NowMicros() + 1'000'000;
  auto p1 = changelog_.Prepare("db", {Path("/docs/a")}, max_ts);
  auto p2 = changelog_.Prepare("db", {Path("/docs/b")}, max_ts);
  ASSERT_TRUE(p1.ok() && p2.ok());
  // Accept out of order: the later prepare's (earlier unknown) commit first.
  Timestamp ts2 = p2->min_commit_ts + 10;
  Timestamp ts1 = p1->min_commit_ts + 5;  // ts1 < ts2
  changelog_.Accept(p2->token, WriteOutcome::kSuccess, ts2,
                    {MakeChange("/docs/b", 2)});
  // Nothing can be released yet: prepare 1 is outstanding with min < ts2.
  EXPECT_TRUE(ChangeEvents().empty());
  changelog_.Accept(p1->token, WriteOutcome::kSuccess, ts1,
                    {MakeChange("/docs/a", 1)});
  // Both become releasable; order must be ts1 then ts2.
  clock_.AdvanceBy(2'000'000);
  changelog_.Tick();
  auto changes = ChangeEvents();
  ASSERT_EQ(changes.size(), 2u);
  EXPECT_EQ(changes[0].ts, ts1);
  EXPECT_EQ(changes[1].ts, ts2);
}

TEST_F(RtFixture, FailedWritesAreDropped) {
  auto p = changelog_.Prepare("db", {Path("/docs/a")},
                              clock_.NowMicros() + 1'000'000);
  ASSERT_TRUE(p.ok());
  changelog_.Accept(p->token, WriteOutcome::kFailed, 0, {});
  clock_.AdvanceBy(2'000'000);
  changelog_.Tick();
  EXPECT_TRUE(ChangeEvents().empty());
  EXPECT_FALSE(SawOutOfSync());
}

TEST_F(RtFixture, UnknownOutcomeMarksRangeOutOfSync) {
  auto p = changelog_.Prepare("db", {Path("/docs/a")},
                              clock_.NowMicros() + 1'000'000);
  ASSERT_TRUE(p.ok());
  const int64_t out_of_sync0 = CounterValue("rtcache.out_of_sync");
  changelog_.Accept(p->token, WriteOutcome::kUnknown, 0, {});
  EXPECT_TRUE(SawOutOfSync());
  EXPECT_EQ(CounterValue("rtcache.out_of_sync") - out_of_sync0, 1);
}

TEST_F(RtFixture, ExpiredPrepareMarksRangeOutOfSync) {
  auto p = changelog_.Prepare("db", {Path("/docs/a")},
                              clock_.NowMicros() + 1'000'000);
  ASSERT_TRUE(p.ok());
  // The Accept never arrives; after max_ts + grace the range is reset.
  clock_.AdvanceBy(2'000'000);
  changelog_.Tick();
  EXPECT_TRUE(SawOutOfSync());
  // A late Accept for the expired prepare is ignored.
  changelog_.Accept(p->token, WriteOutcome::kSuccess, p->min_commit_ts + 1,
                    {MakeChange("/docs/a", 1)});
  EXPECT_TRUE(ChangeEvents().empty());
}

TEST_F(RtFixture, OutOfSyncLeavesInFlightPreparesHoldingTheWatermark) {
  Timestamp max_ts = clock_.NowMicros() + 10'000'000;
  auto unknown = changelog_.Prepare("db", {Path("/docs/a")}, max_ts);
  auto in_flight = changelog_.Prepare("db", {Path("/docs/b")}, max_ts);
  ASSERT_TRUE(unknown.ok() && in_flight.ok());
  // The second write has committed, but its Accept is still on the way
  // when the first write's unknown outcome marks the range out-of-sync.
  Timestamp commit_ts = in_flight->min_commit_ts;
  changelog_.Accept(unknown->token, WriteOutcome::kUnknown, 0, {});
  clock_.AdvanceBy(1'000);
  changelog_.Tick();
  EXPECT_LT(LastWatermark(), commit_ts);
  // Its release must not arrive behind a published watermark: a Frontend
  // that had advanced past commit_ts would drop it as already covered.
  changelog_.Accept(in_flight->token, WriteOutcome::kSuccess, commit_ts,
                    {MakeChange("/docs/b", 1)});
  clock_.AdvanceBy(1'000);
  changelog_.Tick();
  ASSERT_EQ(ChangeEvents().size(), 1u);
  EXPECT_EQ(ChangeEvents()[0].ts, commit_ts);
  EXPECT_EQ(LastWatermark(), clock_.NowMicros());
}

TEST_F(RtFixture, HeartbeatsAdvanceIdleWatermark) {
  changelog_.Tick();
  Timestamp w1 = LastWatermark();
  EXPECT_EQ(w1, clock_.NowMicros());
  clock_.AdvanceBy(5'000);
  changelog_.Tick();
  EXPECT_EQ(LastWatermark(), clock_.NowMicros());
}

TEST_F(RtFixture, WatermarkHeldBackByOutstandingPrepare) {
  auto p = changelog_.Prepare("db", {Path("/docs/a")},
                              clock_.NowMicros() + 10'000'000);
  ASSERT_TRUE(p.ok());
  clock_.AdvanceBy(5'000'000);
  changelog_.Tick();  // within grace; prepare still outstanding
  EXPECT_LT(LastWatermark(), p->min_commit_ts);
}

TEST_F(RtFixture, UnavailableFaultFailsPrepare) {
  {
    FaultConfig config;
    config.action =
        FaultAction::Fail(UnavailableError("Changelog unavailable"));
    ScopedFault fault("rtcache.prepare", config);
    auto p = changelog_.Prepare("db", {Path("/docs/a")},
                                clock_.NowMicros() + 1'000'000);
    EXPECT_EQ(p.status().code(), StatusCode::kUnavailable);
  }
  auto p2 = changelog_.Prepare("db", {Path("/docs/a")},
                               clock_.NowMicros() + 1'000'000);
  EXPECT_TRUE(p2.ok());
}

TEST_F(RtFixture, MatcherFiltersIrrelevantChanges) {
  // The subscription is for collection "docs"; a change in another
  // collection is matched against the query and dropped.
  const int64_t examined0 = CounterValue("rtcache.matcher.examined");
  const int64_t matched0 = CounterValue("rtcache.matcher.matched");
  auto p = changelog_.Prepare("db", {Path("/other/x")},
                              clock_.NowMicros() + 1'000'000);
  ASSERT_TRUE(p.ok());
  changelog_.Accept(p->token, WriteOutcome::kSuccess, p->min_commit_ts + 1,
                    {MakeChange("/other/x", 1)});
  clock_.AdvanceBy(2'000'000);
  changelog_.Tick();
  EXPECT_TRUE(ChangeEvents().empty());
  EXPECT_GT(CounterValue("rtcache.matcher.examined") - examined0, 0);
  EXPECT_EQ(CounterValue("rtcache.matcher.matched") - matched0, 0);
}

TEST_F(RtFixture, MatcherForwardsRemovals) {
  // A document that used to match but no longer does is still forwarded
  // (the frontend needs it to emit the removal).
  DocumentChange change;
  change.name = Path("/docs/gone");
  change.deleted = true;
  change.old_doc = Document(change.name, {{"v", Value::Integer(1)}});
  auto p = changelog_.Prepare("db", {change.name},
                              clock_.NowMicros() + 1'000'000);
  ASSERT_TRUE(p.ok());
  changelog_.Accept(p->token, WriteOutcome::kSuccess, p->min_commit_ts + 1,
                    {change});
  clock_.AdvanceBy(2'000'000);
  changelog_.Tick();
  ASSERT_EQ(ChangeEvents().size(), 1u);
  EXPECT_TRUE(ChangeEvents()[0].change.deleted);
}

TEST_F(RtFixture, MatcherIgnoresOtherDatabases) {
  auto p = changelog_.Prepare("other-db", {Path("/docs/a")},
                              clock_.NowMicros() + 1'000'000);
  ASSERT_TRUE(p.ok());
  changelog_.Accept(p->token, WriteOutcome::kSuccess, p->min_commit_ts + 1,
                    {MakeChange("/docs/a", 1)});
  clock_.AdvanceBy(2'000'000);
  changelog_.Tick();
  EXPECT_TRUE(ChangeEvents().empty());
}

TEST_F(RtFixture, UnsubscribeStopsDelivery) {
  matcher_.Unsubscribe(1);
  EXPECT_EQ(matcher_.subscription_count(), 0);
  auto p = changelog_.Prepare("db", {Path("/docs/a")},
                              clock_.NowMicros() + 1'000'000);
  changelog_.Accept(p->token, WriteOutcome::kSuccess, p->min_commit_ts + 1,
                    {MakeChange("/docs/a", 1)});
  clock_.AdvanceBy(2'000'000);
  changelog_.Tick();
  EXPECT_TRUE(events_.empty());
}

// ---------------------------------------------------------------------------
// Published watermarks

// Writers Prepare and Accept while another thread Ticks. A watermark is
// published only after the releases it covers have been delivered, so at
// every delivery the range's published watermark is still below the
// change's timestamp. Publishing from Tick, or from any thread but the
// FIFO drainer, lets a watermark outrun a release and fails this test.
TEST(WatermarkTableTest, WatermarkNeverOutrunsARelease) {
  RealClock clock;
  RangeOwnership ranges = RangeOwnership::Uniform(2);
  QueryMatcher matcher;
  Changelog changelog(&clock, &ranges, &matcher);
  std::atomic<int> delivered{0};
  std::atomic<int> outrun{0};
  matcher.Subscribe(1, "db", query::Query(model::ResourcePath(), "docs"),
                    {0, 1}, [&](uint64_t, const RangeEvent& event) {
                      if (event.type != RangeEvent::Type::kChange) return;
                      delivered.fetch_add(1);
                      if (event.ts <= matcher.watermark(event.range)) {
                        outrun.fetch_add(1);
                      }
                    });
  constexpr int kWriters = 3;
  constexpr int kWritesPerWriter = 300;
  std::atomic<bool> stop{false};
  // The ticker pauses between heartbeats like a real pump: spinning, it
  // could enqueue watermarks faster than the drainer fires them.
  std::thread ticker([&] {
    while (!stop.load()) {
      changelog.Tick();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kWritesPerWriter; ++i) {
        std::string path =
            "/docs/w" + std::to_string(w) + "-" + std::to_string(i % 8);
        auto p = changelog.Prepare("db", {Path(path)},
                                   clock.NowMicros() + 60'000'000);
        if (!p.ok()) continue;
        changelog.Accept(p->token, WriteOutcome::kSuccess, p->min_commit_ts,
                         {MakeChange(path, i)});
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true);
  ticker.join();
  // Release the tail: assigned minimums may run a little ahead of the clock.
  for (int i = 0; i < 100 && delivered.load() < kWriters * kWritesPerWriter;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    changelog.Tick();
  }
  EXPECT_EQ(delivered.load(), kWriters * kWritesPerWriter);
  EXPECT_EQ(outrun.load(), 0);
}

// Heartbeats are per range: an idle Tick publishes the range's watermark
// once and calls no subscription's sink, however many there are.
TEST(WatermarkTableTest, IdleTickMakesNoSinkCalls) {
  ManualClock clock(1'000'000);
  RangeOwnership ranges = RangeOwnership::Uniform(1);
  QueryMatcher matcher;
  Changelog changelog(&clock, &ranges, &matcher);
  int sink_calls = 0;
  for (uint64_t id = 1; id <= 1000; ++id) {
    matcher.Subscribe(id, "db", query::Query(model::ResourcePath(), "docs"),
                      {0}, [&](uint64_t, const RangeEvent&) { ++sink_calls; });
  }
  for (int i = 0; i < 3; ++i) {
    clock.AdvanceBy(5'000);
    changelog.Tick();
    EXPECT_EQ(matcher.watermark(0), clock.NowMicros());
  }
  EXPECT_EQ(sink_calls, 0);
}

}  // namespace
}  // namespace firestore::rtcache
