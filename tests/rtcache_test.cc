#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/fault_injection.h"
#include "common/random.h"
#include "firestore/index/layout.h"
#include "rtcache/changelog.h"
#include "rtcache/query_matcher.h"
#include "rtcache/range_ownership.h"
#include "service/service.h"
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
  // collection reaches no candidate, so no query is even examined.
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
  EXPECT_EQ(CounterValue("rtcache.matcher.examined") - examined0, 0);
  EXPECT_EQ(CounterValue("rtcache.matcher.matched") - matched0, 0);
}

// Matching cost follows the change, not the listener count: with 50,000
// equality subscriptions over 500 values plus one inequality-only query, a
// change is verified against its value's 100 subscriptions and the
// unindexed one, and a change in another collection against none.
TEST(QueryMatcherTest, MatcherExaminesOnlyCandidates) {
  QueryMatcher matcher;
  constexpr int kValues = 500;
  constexpr int kPerValue = 100;
  int sink_calls = 0;
  auto sink = [&sink_calls](uint64_t, const RangeEvent&) { ++sink_calls; };
  uint64_t id = 0;
  for (int copy = 0; copy < kPerValue; ++copy) {
    for (int v = 0; v < kValues; ++v) {
      query::Query q(model::ResourcePath(), "docs");
      q.Where(Field("v"), query::Operator::kEqual, Value::Integer(v));
      matcher.Subscribe(++id, "db", q, {0}, sink);
    }
  }
  query::Query below(model::ResourcePath(), "docs");
  below.Where(Field("v"), query::Operator::kLessThan, Value::Integer(0));
  matcher.Subscribe(++id, "db", below, {0}, sink);
  ASSERT_EQ(matcher.subscription_count(), kValues * kPerValue + 1);

  const int64_t examined0 = CounterValue("rtcache.matcher.examined");
  const int64_t matched0 = CounterValue("rtcache.matcher.matched");
  matcher.OnDocumentChange("db", 0, 10, MakeChange("/docs/a", 42));
  EXPECT_EQ(CounterValue("rtcache.matcher.examined") - examined0,
            kPerValue + 1);
  EXPECT_EQ(CounterValue("rtcache.matcher.matched") - matched0, kPerValue);
  EXPECT_EQ(sink_calls, kPerValue);

  const int64_t examined1 = CounterValue("rtcache.matcher.examined");
  matcher.OnDocumentChange("db", 0, 11, MakeChange("/other/a", 42));
  EXPECT_EQ(CounterValue("rtcache.matcher.examined") - examined1, 0);
  EXPECT_EQ(sink_calls, kPerValue);
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
// QueryMatcher forwarding property

// Random subscriptions and random changes, fed straight to the matcher: for
// every change, the sink calls must be exactly the live subscriptions on the
// change's range and database whose query matches the new or the old
// document, in subscription-id order. Queries mix equality terms that
// compare equal across types (3 and 3.0, maps holding either), contradictory
// equalities, nested fields, inequality-only, array-contains and unfiltered
// queries, another database, and the same collection id under another
// parent; changes create, move documents between values, drop fields and
// delete.
TEST(QueryMatcherPropertyTest, IndexedMatchingEqualsBruteForce) {
  using query::Operator;
  const std::vector<Value> pool = {
      Value::Integer(0),
      Value::Integer(1),
      Value::Integer(2),
      Value::Double(1.0),
      Value::Double(2.0),
      Value::Double(1.5),
      Value::String("a"),
      Value::String("b"),
      Value::Null(),
      Value::FromMap({{"k", Value::Integer(1)}}),
      Value::FromMap({{"k", Value::Double(1.0)}}),
  };
  const std::vector<std::string> fields = {"f", "g", "a.b"};
  const std::vector<model::ResourcePath> parents = {
      model::ResourcePath(), model::ResourcePath(), Path("/x/d0")};
  const std::vector<std::string> collections = {"games", "other", "games"};
  constexpr int kSubscriptions = 200;
  constexpr int kChanges = 300;

  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    auto pick = [&](const auto& v) -> const auto& {
      return v[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(v.size()) - 1))];
    };
    struct Sub {
      std::string database_id;
      query::Query query;
      std::vector<RangeId> ranges;
    };
    QueryMatcher matcher;
    std::map<uint64_t, Sub> live;
    std::vector<uint64_t> calls;  // subscription ids, in sink order
    for (uint64_t id = 1; id <= kSubscriptions; ++id) {
      size_t c = static_cast<size_t>(rng.Uniform(0, 2));
      query::Query q(parents[c], collections[c]);
      switch (rng.Uniform(0, 6)) {
        case 0:  // one equality, possibly nested
          q.Where(Field(pick(fields)), Operator::kEqual, pick(pool));
          break;
        case 1:  // two equalities, sometimes on one field (contradictory)
          q.Where(Field("f"), Operator::kEqual, pick(pool));
          q.Where(Field(rng.Bernoulli(0.5) ? "f" : "g"), Operator::kEqual,
                  pick(pool));
          break;
        case 2:  // equality plus an inequality on another field
          q.Where(Field("g"), Operator::kEqual, pick(pool));
          q.Where(Field("f"), Operator::kGreaterThanOrEqual,
                  Value::Integer(rng.Uniform(0, 2)));
          break;
        case 3:  // inequality only
          q.Where(Field("f"), Operator::kLessThan,
                  Value::Integer(rng.Uniform(0, 3)));
          break;
        case 4:
          q.Where(Field("arr"), Operator::kArrayContains, pick(pool));
          break;
        case 5:  // no filter, sometimes ordered
          if (rng.Bernoulli(0.5)) q.OrderByField(Field("g"));
          break;
        default:  // equality with an explicit order on another field
          q.Where(Field("f"), Operator::kEqual, pick(pool));
          q.OrderByField(Field("g"));
          break;
      }
      std::vector<RangeId> ranges =
          rng.Bernoulli(0.5) ? std::vector<RangeId>{0, 1}
                             : std::vector<RangeId>{
                                   static_cast<RangeId>(rng.Uniform(0, 1))};
      std::string db = rng.Bernoulli(0.9) ? "db" : "db2";
      matcher.Subscribe(id, db, q, ranges,
                        [&calls](uint64_t sub, const RangeEvent&) {
                          calls.push_back(sub);
                        });
      live[id] = Sub{db, q, ranges};
    }

    auto random_doc = [&](const model::ResourcePath& name) {
      Document doc(name, {});
      if (rng.Bernoulli(0.8)) doc.SetField(Field("f"), pick(pool));
      if (rng.Bernoulli(0.6)) doc.SetField(Field("g"), pick(pool));
      if (rng.Bernoulli(0.4)) doc.SetField(Field("a.b"), pick(pool));
      if (rng.Bernoulli(0.3)) {
        doc.SetField(Field("arr"),
                     Value::FromArray({pick(pool), pick(pool)}));
      }
      return doc;
    };
    std::map<std::pair<std::string, std::string>, Document> stored;
    size_t forwarded = 0;
    for (int step = 0; step < kChanges; ++step) {
      if (step == kChanges / 2) {
        // Unsubscribe a random tenth part-way through.
        for (int i = 0; i < kSubscriptions / 10; ++i) {
          uint64_t id = static_cast<uint64_t>(rng.Uniform(1, kSubscriptions));
          matcher.Unsubscribe(id);
          live.erase(id);
        }
      }
      std::string db = rng.Bernoulli(0.9) ? "db" : "db2";
      size_t c = static_cast<size_t>(rng.Uniform(0, 2));
      model::ResourcePath name = parents[c].Child(collections[c]).Child(
          "d" + std::to_string(rng.Uniform(0, 7)));
      auto key = std::make_pair(db, name.CanonicalString());
      DocumentChange change;
      change.name = name;
      auto existing = stored.find(key);
      if (existing != stored.end()) change.old_doc = existing->second;
      if (existing != stored.end() && rng.Bernoulli(0.2)) {
        change.deleted = true;
        stored.erase(existing);
      } else {
        Document doc = random_doc(name);
        if (existing != stored.end() && rng.Bernoulli(0.3)) {
          // Drop one field of the stored document.
          doc = existing->second;
          doc.DeleteField(Field(pick(fields)));
        }
        change.new_doc = doc;
        stored[key] = doc;
      }
      RangeId range = static_cast<RangeId>(rng.Uniform(0, 1));

      std::vector<uint64_t> expected;
      for (const auto& [id, sub] : live) {
        if (sub.database_id != db) continue;
        if (std::find(sub.ranges.begin(), sub.ranges.end(), range) ==
            sub.ranges.end()) {
          continue;
        }
        if ((change.new_doc && sub.query.Matches(*change.new_doc)) ||
            (change.old_doc && sub.query.Matches(*change.old_doc))) {
          expected.push_back(id);
        }
      }
      calls.clear();
      matcher.OnDocumentChange(db, range, step + 1, change);
      ASSERT_EQ(calls, expected) << "change " << step << " to "
                                 << name.CanonicalString();
      forwarded += calls.size();
    }
    // Not vacuous: a good share of changes reach several subscriptions.
    EXPECT_GT(forwarded, static_cast<size_t>(kChanges));
  }
}

// ---------------------------------------------------------------------------
// Published watermarks

// Writers Prepare and Accept while another thread Ticks. A watermark is
// published only after the releases it covers have been delivered, so at
// every delivery the range's published watermark is still below the
// change's timestamp. Publishing a watermark anywhere but after its
// releases in the Changelog's critical section (after dropping the lock,
// say) lets it outrun a release and fails this test.
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
  // would take the Changelog lock back to back and crowd out the writers.
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

// ---------------------------------------------------------------------------
// Changelog protocol

// A seeded scheduler drives one Changelog over four ranges, single-threaded:
// Prepares, Accepts (successful, failed, unknown, late, or dropped at
// rtcache.accept.drop), clock advances with Tick (which expires Prepares),
// and Subscribes with recording sinks. After every step and after a final
// drain it checks what the Frontends rely on:
//  - a range's published watermark never decreases;
//  - no change reaches a sink at or below its range's watermark as
//    published at that moment;
//  - each range delivers in timestamp order;
//  - between out-of-sync events a range delivers exactly the successful
//    Accepts, with none lost, duplicated or invented;
//  - every range an unknown, expired or dropped Accept touches gets an
//    out-of-sync event in that step, and no other range does;
//  - a successful Accept whose ranges hold no Prepare at or below its
//    commit timestamp is delivered, with a watermark covering it on each
//    of its ranges, within its own step: release needs no Tick.
// A later subscription sees exactly what the first one saw from its
// Subscribe on, restricted to its ranges.
TEST(ChangelogProtocolTest, SeededSchedulesKeepTheProtocol) {
  constexpr Micros kAcceptGrace = 500'000;  // the Changelog's fixed grace
  constexpr int kDocs = 16;
  constexpr int kRanges = 4;
  constexpr int kSteps = 500;
  auto doc_path = [](int d) { return "/docs/d" + std::to_string(d); };
  // Split the tenant's documents four to a range.
  std::vector<std::string> keys;
  for (int d = 0; d < kDocs; ++d) {
    keys.push_back(index::EntityKey("db", Path(doc_path(d))));
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::string> splits;
  for (int r = 1; r < kRanges; ++r) splits.push_back(keys[r * kDocs / kRanges]);

  // (type, range, ts, the change's "v"; -1 for out-of-sync)
  using Summary = std::tuple<int, RangeId, Timestamp, int64_t>;
  auto summarize = [](const RangeEvent& event) {
    int64_t v = -1;
    if (event.type == RangeEvent::Type::kChange) {
      v = event.change.new_doc->GetField(Field("v"))->integer_value();
    }
    return Summary{static_cast<int>(event.type), event.range, event.ts, v};
  };
  int64_t total_changes = 0, total_out_of_sync = 0, total_dropped = 0,
          total_expired = 0, total_late = 0, total_prompt = 0;

  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ManualClock clock(1'000'000);
    RangeOwnership ranges(splits);
    ASSERT_EQ(ranges.num_ranges(), kRanges);
    QueryMatcher matcher;
    Changelog changelog(&clock, &ranges, &matcher);
    const query::Query all_docs(model::ResourcePath(), "docs");
    auto owner = [&](int d) {
      return ranges.OwnerOf(index::EntityKey("db", Path(doc_path(d))));
    };

    // The first subscription covers every range; `published` is its range's
    // watermark when the sink ran.
    struct Delivery {
      Summary event;
      Timestamp published = 0;
    };
    std::vector<Delivery> log;
    matcher.Subscribe(1, "db", all_docs, {0, 1, 2, 3},
                      [&](uint64_t, const RangeEvent& event) {
                        log.push_back({summarize(event),
                                       matcher.watermark(event.range)});
                      });
    struct LaterSub {
      std::vector<RangeId> ranges;
      size_t cursor = 0;  // next log entry to expect
      std::vector<Summary> got, want;
    };
    std::deque<LaterSub> later;

    // A Prepare the Changelog still holds.
    struct Write {
      uint64_t token = 0;
      std::vector<int> docs;
      std::vector<RangeId> ranges;
      Timestamp min_ts = 0, max_ts = 0;
      bool dropped = false;  // its Accept was lost
    };
    std::vector<Write> pending;
    std::vector<uint64_t> expired_tokens;  // for late Accepts
    std::set<Timestamp> used_ts;
    int64_t next_value = 0;
    // range -> (ts, v) accepted successfully and not yet delivered.
    std::vector<std::set<std::pair<Timestamp, int64_t>>> expected(kRanges);
    std::vector<Timestamp> last_delivered(kRanges, 0);
    std::vector<Timestamp> last_watermarks(kRanges, 0);
    size_t checked = 0;

    // Resolves every Prepare whose expiry Tick passes: its ranges are owed
    // an out-of-sync event.
    auto tick = [&](std::set<RangeId>& owed) {
      changelog.Tick();
      for (auto it = pending.begin(); it != pending.end();) {
        if (it->max_ts + kAcceptGrace >= clock.NowMicros()) {
          ++it;
          continue;
        }
        owed.insert(it->ranges.begin(), it->ranges.end());
        expired_tokens.push_back(it->token);
        ++total_expired;
        it = pending.erase(it);
      }
    };
    // Checks the deliveries since the last call against the model.
    auto check = [&](const std::set<RangeId>& owed, int step) {
      SCOPED_TRACE("step " + std::to_string(step));
      std::set<RangeId> out_of_sync;
      for (; checked < log.size(); ++checked) {
        const auto& [type, r, ts, v] = log[checked].event;
        if (type == static_cast<int>(RangeEvent::Type::kOutOfSync)) {
          ASSERT_TRUE(owed.count(r)) << "unowed out-of-sync on range " << r;
          out_of_sync.insert(r);
          expected[r].clear();  // its unreleased changes are gone
          ++total_out_of_sync;
          continue;
        }
        ASSERT_GT(ts, log[checked].published) << "range " << r;
        ASSERT_GE(ts, last_delivered[r]) << "range " << r;
        last_delivered[r] = ts;
        ASSERT_EQ(expected[r].erase({ts, v}), 1u)
            << "range " << r << " delivered (" << ts << ", " << v
            << ") twice or without a successful Accept";
        ++total_changes;
      }
      ASSERT_EQ(out_of_sync, owed);
      for (RangeId r = 0; r < kRanges; ++r) {
        ASSERT_GE(matcher.watermark(r), last_watermarks[r]) << "range " << r;
        last_watermarks[r] = matcher.watermark(r);
      }
      for (LaterSub& sub : later) {
        for (; sub.cursor < log.size(); ++sub.cursor) {
          const Summary& event = log[sub.cursor].event;
          if (std::find(sub.ranges.begin(), sub.ranges.end(),
                        std::get<1>(event)) != sub.ranges.end()) {
            sub.want.push_back(event);
          }
        }
        ASSERT_EQ(sub.got, sub.want);
      }
    };

    for (int step = 0; step < kSteps; ++step) {
      std::set<RangeId> owed;
      // (range, ts, v) this step's Accept must have delivered and covered.
      std::vector<std::tuple<RangeId, Timestamp, int64_t>> prompt;
      const int64_t roll = rng.Uniform(0, 99);
      if (roll < 30) {  // Prepare one or two documents
        Write w;
        w.docs.push_back(static_cast<int>(rng.Uniform(0, kDocs - 1)));
        if (rng.Bernoulli(0.4)) {
          int d = static_cast<int>(rng.Uniform(0, kDocs - 1));
          if (d != w.docs[0]) w.docs.push_back(d);
        }
        std::vector<model::ResourcePath> names;
        for (int d : w.docs) {
          names.push_back(Path(doc_path(d)));
          if (std::find(w.ranges.begin(), w.ranges.end(), owner(d)) ==
              w.ranges.end()) {
            w.ranges.push_back(owner(d));
          }
        }
        w.max_ts = clock.NowMicros() + rng.Uniform(200'000, 2'000'000);
        auto handle = changelog.Prepare("db", names, w.max_ts);
        ASSERT_TRUE(handle.ok());
        ASSERT_LE(handle->min_commit_ts, w.max_ts);
        w.token = handle->token;
        w.min_ts = handle->min_commit_ts;
        pending.push_back(std::move(w));
      } else if (roll < 40 && !expired_tokens.empty()) {  // a late Accept
        size_t i = static_cast<size_t>(rng.Uniform(
            0, static_cast<int64_t>(expired_tokens.size()) - 1));
        uint64_t token = expired_tokens[i];
        expired_tokens.erase(expired_tokens.begin() + i);
        const WriteOutcome outcome = static_cast<WriteOutcome>(
            rng.Uniform(0, 2));
        changelog.Accept(token, outcome, clock.NowMicros(),
                         {MakeChange(doc_path(0), next_value++)});
        ++total_late;
      } else if (roll < 75) {  // Accept a Prepare whose Accept is not lost
        std::vector<size_t> open;
        for (size_t i = 0; i < pending.size(); ++i) {
          if (!pending[i].dropped) open.push_back(i);
        }
        if (!open.empty()) {
          const size_t i = open[static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(open.size()) - 1))];
          const int64_t kind = rng.Uniform(0, 99);
          if (kind < 10) {  // the Accept is lost on the way
            ScopedFault drop("rtcache.accept.drop",
                             FaultConfig{.action = FaultAction::Drop()});
            changelog.Accept(pending[i].token, WriteOutcome::kSuccess,
                             pending[i].min_ts, {});
            pending[i].dropped = true;
            ++total_dropped;
          } else {
            const Write w = pending[i];
            pending.erase(pending.begin() + static_cast<ptrdiff_t>(i));
            if (kind < 20) {
              changelog.Accept(w.token, WriteOutcome::kFailed, 0, {});
            } else if (kind < 25) {
              owed.insert(w.ranges.begin(), w.ranges.end());
              changelog.Accept(w.token, WriteOutcome::kUnknown, 0, {});
            } else {
              // A unique commit timestamp in [min_ts, max_ts].
              const Timestamp hi = std::min(w.max_ts, w.min_ts + 2'000);
              Timestamp ts = rng.Uniform(w.min_ts, hi);
              while (used_ts.count(ts)) ts = rng.Uniform(w.min_ts, hi);
              used_ts.insert(ts);
              bool held = false;
              for (const Write& other : pending) {
                for (RangeId r : other.ranges) {
                  held = held || (other.min_ts <= ts &&
                                  std::count(w.ranges.begin(), w.ranges.end(),
                                             r) > 0);
                }
              }
              std::vector<DocumentChange> changes;
              for (int d : w.docs) {
                changes.push_back(MakeChange(doc_path(d), next_value));
                expected[owner(d)].insert({ts, next_value});
                if (!held) prompt.emplace_back(owner(d), ts, next_value);
                ++next_value;
              }
              changelog.Accept(w.token, WriteOutcome::kSuccess, ts, changes);
            }
          }
        }
      } else if (roll < 95) {  // time passes; heartbeats and expiries
        clock.AdvanceBy(rng.Uniform(0, 200'000));
        tick(owed);
      } else if (later.size() < 6) {  // a new subscription
        LaterSub sub;
        for (RangeId r = 0; r < kRanges; ++r) {
          if (rng.Bernoulli(0.5)) sub.ranges.push_back(r);
        }
        if (sub.ranges.empty()) sub.ranges.push_back(0);
        sub.cursor = log.size();
        later.push_back(std::move(sub));
        LaterSub* recorder = &later.back();
        matcher.Subscribe(later.size() + 1, "db", all_docs, recorder->ranges,
                          [recorder, &summarize](uint64_t,
                                                 const RangeEvent& event) {
                            recorder->got.push_back(summarize(event));
                          });
      }
      check(owed, step);
      if (::testing::Test::HasFatalFailure()) return;
      for (const auto& [r, ts, v] : prompt) {
        ASSERT_EQ(expected[r].count({ts, v}), 0u)
            << "step " << step << ": range " << r << " kept (" << ts
            << ", " << v << ") for a Tick";
        ASSERT_GE(matcher.watermark(r), ts) << "step " << step;
        ++total_prompt;
      }
    }

    // Final drain: every Prepare expires or is released, then every range
    // heartbeats past the last commit.
    std::set<RangeId> owed;
    clock.AdvanceBy(10'000'000);
    tick(owed);
    EXPECT_TRUE(pending.empty());
    clock.AdvanceBy(1'000);
    tick(owed);
    check(owed, kSteps);
    if (::testing::Test::HasFatalFailure()) return;
    for (RangeId r = 0; r < kRanges; ++r) {
      EXPECT_TRUE(expected[r].empty())
          << "range " << r << " lost " << expected[r].size()
          << " accepted changes without an out-of-sync event";
    }
  }
  // Not vacuous: every kind of step happened, many times.
  EXPECT_GT(total_changes, 400);
  EXPECT_GT(total_out_of_sync, 100);
  EXPECT_GT(total_dropped, 50);
  EXPECT_GT(total_expired, 50);
  EXPECT_GT(total_late, 40);
  EXPECT_GT(total_prompt, 100);
}

// The Frontend half, through the whole service over four ranges: a seeded
// scheduler commits (some with the Accept dropped at rtcache.accept.drop,
// some with an unknown outcome), advances the clock and pumps, and starts
// and stops listeners, several to a connection. After every step, every
// snapshot delivered since is checked: a target's first snapshot is a
// reset, incremental snapshots rise strictly in snapshot_ts, and the
// snapshot at W, both its `documents` and its changes applied cumulatively,
// equals RunQuery at read_ts = W. After a final drain every live target
// equals a fresh RunQuery.
TEST(ChangelogProtocolTest, SeededSchedulesDeliverSnapshotsEqualToReruns) {
  constexpr char kDb[] = "projects/p/databases/d";
  constexpr int kDocs = 16;
  constexpr int kSteps = 300;
  auto doc_path = [](int d) { return "/docs/d" + std::to_string(d); };
  std::vector<std::string> keys;
  for (int d = 0; d < kDocs; ++d) {
    keys.push_back(index::EntityKey(kDb, Path(doc_path(d))));
  }
  std::sort(keys.begin(), keys.end());
  service::FirestoreService::Options options;
  for (int r = 1; r < 4; ++r) {
    options.realtime_split_points.push_back(keys[r * kDocs / 4]);
  }
  auto make_query = [](int64_t kind, int64_t k) {
    query::Query q(model::ResourcePath(), "docs");
    if (kind == 1) {
      q.Where(Field("v"), query::Operator::kEqual, Value::Integer(k));
    }
    if (kind == 2) q.OrderByField(Field("v"), true).Limit(3);
    if (kind == 3) {
      q.Where(Field("v"), query::Operator::kGreaterThanOrEqual,
              Value::Integer(k));
    }
    return q;
  };
  int64_t total_resets = 0, total_deltas = 0;
  const int64_t out_of_sync0 = CounterValue("rtcache.out_of_sync");

  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ManualClock clock(1'000'000'000);
    service::FirestoreService service(&clock, options);
    ASSERT_TRUE(service.CreateDatabase(kDb).ok());
    frontend::Frontend& frontend = service.frontend();

    struct Watch {
      frontend::Frontend::ConnectionId connection = 0;
      frontend::Frontend::TargetId target = 0;
      query::Query query;
      std::vector<frontend::QuerySnapshot> got;
      size_t checked = 0;
      std::map<std::string, Document> replay;
      bool live = true;
    };
    std::deque<Watch> watches;
    const frontend::Frontend::ConnectionId shared =
        frontend.OpenPrivilegedConnection(kDb);

    auto check = [&](int step) {
      SCOPED_TRACE("step " + std::to_string(step));
      for (Watch& w : watches) {
        for (; w.checked < w.got.size(); ++w.checked) {
          const frontend::QuerySnapshot& s = w.got[w.checked];
          ASSERT_TRUE(s.error.ok()) << s.error;
          if (w.checked == 0) {
            ASSERT_TRUE(s.is_reset) << "target " << w.target;
          } else if (s.is_reset) {
            ASSERT_GE(s.snapshot_ts, w.got[w.checked - 1].snapshot_ts);
          } else {
            ASSERT_GT(s.snapshot_ts, w.got[w.checked - 1].snapshot_ts);
          }
          if (s.is_reset) {
            w.replay.clear();
            ++total_resets;
          } else {
            ++total_deltas;
          }
          for (const frontend::SnapshotChange& c : s.changes) {
            const std::string name = c.doc.name().CanonicalString();
            if (c.kind == frontend::ChangeKind::kRemoved) {
              ASSERT_EQ(w.replay.erase(name), 1u) << name;
            } else {
              w.replay[name] = c.doc;
            }
          }
          auto rerun = service.RunQuery(kDb, w.query, s.snapshot_ts);
          ASSERT_TRUE(rerun.ok()) << rerun.status();
          const std::vector<Document>& want = rerun->result.documents;
          ASSERT_EQ(s.documents, want) << "target " << w.target << " at "
                                       << s.snapshot_ts;
          ASSERT_EQ(w.replay.size(), want.size());
          for (const Document& doc : want) {
            auto it = w.replay.find(doc.name().CanonicalString());
            ASSERT_TRUE(it != w.replay.end() && it->second == doc)
                << doc.name().CanonicalString();
          }
        }
      }
    };

    for (int step = 0; step < kSteps; ++step) {
      const int64_t roll = rng.Uniform(0, 99);
      if (roll < 58) {  // a commit of one or two documents
        std::vector<backend::Mutation> mutations;
        const int count = rng.Bernoulli(0.3) ? 2 : 1;
        for (int i = 0; i < count; ++i) {
          const std::string path =
              doc_path(static_cast<int>(rng.Uniform(0, kDocs - 1)));
          if (rng.Bernoulli(0.2)) {
            mutations.push_back(backend::Mutation::Delete(Path(path)));
          } else {
            mutations.push_back(backend::Mutation::Set(
                Path(path), {{"v", Value::Integer(rng.Uniform(0, 5))},
                             {"step", Value::Integer(step)}}));
          }
        }
        const char* fault = roll < 2    ? "rtcache.accept.drop"
                            : roll < 4  ? "committer.outcome_unknown"
                                        : nullptr;
        if (fault != nullptr) {
          ScopedFault scoped(fault, FaultConfig{.action = FaultAction::Drop()});
          (void)service.Commit(kDb, mutations);
        } else {
          (void)service.Commit(kDb, mutations);
        }
      } else if (roll < 85) {  // time passes; heartbeats, expiry, resets
        clock.AdvanceBy(rng.Uniform(0, 400'000));
        service.Pump();
      } else if (roll < 95) {  // a new listener
        Watch& w = watches.emplace_back();
        w.connection = rng.Bernoulli(0.5)
                           ? shared
                           : frontend.OpenPrivilegedConnection(kDb);
        w.query = make_query(rng.Uniform(0, 3), rng.Uniform(0, 5));
        auto target = frontend.Listen(
            w.connection, w.query,
            [&w](const frontend::QuerySnapshot& s) { w.got.push_back(s); });
        ASSERT_TRUE(target.ok()) << target.status();
        w.target = *target;
      } else {  // a listener stops
        for (Watch& w : watches) {
          if (!w.live || !rng.Bernoulli(0.3)) continue;
          ASSERT_TRUE(frontend.StopListen(w.connection, w.target).ok());
          w.live = false;
          break;
        }
      }
      check(step);
      if (::testing::Test::HasFatalFailure()) return;
    }

    // Final drain: dropped Accepts expire, their resets run, and every live
    // target then holds what a fresh query returns.
    for (int i = 0; i < 4; ++i) {
      clock.AdvanceBy(2'000'000);
      service.Pump();
    }
    check(kSteps);
    if (::testing::Test::HasFatalFailure()) return;
    for (const Watch& w : watches) {
      if (!w.live) continue;
      ASSERT_FALSE(w.got.empty());
      auto now = service.RunQuery(kDb, w.query);
      ASSERT_TRUE(now.ok());
      EXPECT_EQ(w.got.back().documents, now->result.documents)
          << "target " << w.target;
    }
  }
  // Not vacuous: listeners saw resets, out-of-sync ones among them, and
  // deltas, many times.
  EXPECT_GT(total_resets, 300);
  EXPECT_GT(total_deltas, 500);
  EXPECT_GT(CounterValue("rtcache.out_of_sync") - out_of_sync0, 20);
}

}  // namespace
}  // namespace firestore::rtcache
