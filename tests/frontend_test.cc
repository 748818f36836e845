// End-to-end tests of the real-time query pipeline through FirestoreService:
// write -> Changelog -> Query Matcher -> Frontend -> listener callbacks.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/fault_injection.h"
#include "common/thread_annotations.h"
#include "service/service.h"
#include "tests/test_support.h"

namespace firestore::frontend {
namespace {

using backend::Mutation;
using model::Document;
using model::Map;
using model::Value;
using query::Operator;
using query::Query;
using testing::Field;
using testing::Path;

constexpr char kDb[] = "projects/p/databases/d";

class RealtimeTest : public ::testing::Test {
 protected:
  RealtimeTest() : clock_(1'000'000'000), service_(&clock_) {
    FS_CHECK_OK(service_.CreateDatabase(kDb));
  }

  // Commits a put and pumps until listeners are up to date.
  void PutAndPump(const std::string& path, Map fields) {
    auto result =
        service_.Commit(kDb, {Mutation::Set(Path(path), std::move(fields))});
    FS_CHECK(result.ok());
    Pump();
  }

  void DeleteAndPump(const std::string& path) {
    FS_CHECK(service_.Commit(kDb, {Mutation::Delete(Path(path))}).ok());
    Pump();
  }

  // Time must advance for watermarks to pass the latest commit timestamps.
  void Pump() {
    clock_.AdvanceBy(100'000);
    service_.Pump();
    service_.Pump();  // second round: deliver snapshots built on new marks
  }

  ManualClock clock_;
  service::FirestoreService service_;
};

// Arms the lock-order checker for one test, and restores it after: a
// callback that commits or listens then runs the delivery turn, the
// Changelog, the Frontend and the Query Matcher locks under the checker.
class ScopedLockOrderChecking {
 public:
  ScopedLockOrderChecking() : was_enabled_(LockOrderChecker::enabled()) {
    LockOrderChecker::SetEnabled(true);
  }
  ~ScopedLockOrderChecking() { LockOrderChecker::SetEnabled(was_enabled_); }

 private:
  const bool was_enabled_;
};

struct Recorder {
  std::vector<QuerySnapshot> snapshots;
  SnapshotCallback Callback() {
    return [this](const QuerySnapshot& s) { snapshots.push_back(s); };
  }
  const QuerySnapshot& last() const { return snapshots.back(); }
  std::vector<std::string> LastIds() const {
    std::vector<std::string> ids;
    for (const auto& doc : last().documents) {
      ids.push_back(doc.name().last_segment());
    }
    return ids;
  }
};

TEST_F(RealtimeTest, InitialSnapshotDeliveredOnListen) {
  PutAndPump("/scores/a", {{"points", Value::Integer(10)}});
  PutAndPump("/scores/b", {{"points", Value::Integer(20)}});
  Recorder rec;
  auto conn = service_.frontend().OpenPrivilegedConnection(kDb);
  auto target = service_.frontend().Listen(
      conn, Query(model::ResourcePath(), "scores"), rec.Callback());
  ASSERT_TRUE(target.ok());
  ASSERT_EQ(rec.snapshots.size(), 1u);
  EXPECT_TRUE(rec.last().is_reset);
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"a", "b"}));
}

TEST_F(RealtimeTest, IncrementalAddModifyRemove) {
  Recorder rec;
  auto conn = service_.frontend().OpenPrivilegedConnection(kDb);
  ASSERT_TRUE(service_.frontend()
                  .Listen(conn, Query(model::ResourcePath(), "scores"),
                          rec.Callback())
                  .ok());
  ASSERT_EQ(rec.snapshots.size(), 1u);

  PutAndPump("/scores/a", {{"points", Value::Integer(1)}});
  ASSERT_EQ(rec.snapshots.size(), 2u);
  EXPECT_FALSE(rec.last().is_reset);
  ASSERT_EQ(rec.last().changes.size(), 1u);
  EXPECT_EQ(rec.last().changes[0].kind, ChangeKind::kAdded);
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"a"}));

  PutAndPump("/scores/a", {{"points", Value::Integer(2)}});
  ASSERT_EQ(rec.snapshots.size(), 3u);
  EXPECT_EQ(rec.last().changes[0].kind, ChangeKind::kModified);
  EXPECT_EQ(rec.last()
                .changes[0]
                .doc.GetField(Field("points"))
                ->integer_value(),
            2);

  DeleteAndPump("/scores/a");
  ASSERT_EQ(rec.snapshots.size(), 4u);
  EXPECT_EQ(rec.last().changes[0].kind, ChangeKind::kRemoved);
  EXPECT_TRUE(rec.last().documents.empty());
}

TEST_F(RealtimeTest, FilteredQueryOnlySeesMatchingChanges) {
  Recorder rec;
  auto conn = service_.frontend().OpenPrivilegedConnection(kDb);
  Query q(model::ResourcePath(), "scores");
  q.Where(Field("team"), Operator::kEqual, Value::String("red"));
  ASSERT_TRUE(service_.frontend().Listen(conn, q, rec.Callback()).ok());
  PutAndPump("/scores/r1", {{"team", Value::String("red")},
                            {"points", Value::Integer(1)}});
  PutAndPump("/scores/b1", {{"team", Value::String("blue")},
                            {"points", Value::Integer(2)}});
  // Only the red write produced a snapshot.
  ASSERT_EQ(rec.snapshots.size(), 2u);
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"r1"}));
  // A document leaving the filter is reported as a removal.
  PutAndPump("/scores/r1", {{"team", Value::String("blue")}});
  ASSERT_EQ(rec.snapshots.size(), 3u);
  EXPECT_EQ(rec.last().changes[0].kind, ChangeKind::kRemoved);
}

TEST_F(RealtimeTest, SnapshotTimestampsAreMonotonic) {
  Recorder rec;
  auto conn = service_.frontend().OpenPrivilegedConnection(kDb);
  ASSERT_TRUE(service_.frontend()
                  .Listen(conn, Query(model::ResourcePath(), "scores"),
                          rec.Callback())
                  .ok());
  for (int i = 0; i < 5; ++i) {
    PutAndPump("/scores/s" + std::to_string(i),
               {{"points", Value::Integer(i)}});
  }
  ASSERT_GE(rec.snapshots.size(), 2u);
  for (size_t i = 1; i < rec.snapshots.size(); ++i) {
    EXPECT_GT(rec.snapshots[i].snapshot_ts, rec.snapshots[i - 1].snapshot_ts);
  }
}

TEST_F(RealtimeTest, CumulativeDeltasEqualQueryRerun) {
  // DESIGN.md invariant 4: applying the deltas cumulatively reproduces the
  // result of re-running the query at each snapshot timestamp.
  Recorder rec;
  auto conn = service_.frontend().OpenPrivilegedConnection(kDb);
  Query q(model::ResourcePath(), "scores");
  ASSERT_TRUE(service_.frontend().Listen(conn, q, rec.Callback()).ok());
  PutAndPump("/scores/a", {{"points", Value::Integer(1)}});
  PutAndPump("/scores/b", {{"points", Value::Integer(2)}});
  PutAndPump("/scores/a", {{"points", Value::Integer(3)}});
  DeleteAndPump("/scores/b");
  // Replay cumulatively.
  std::map<std::string, Document> replay;
  for (const QuerySnapshot& s : rec.snapshots) {
    if (s.is_reset) replay.clear();
    for (const SnapshotChange& c : s.changes) {
      if (c.kind == ChangeKind::kRemoved) {
        replay.erase(c.doc.name().CanonicalString());
      } else {
        replay[c.doc.name().CanonicalString()] = c.doc;
      }
    }
    // Compare with a query at the snapshot timestamp.
    auto rerun = service_.RunQuery(kDb, q, s.snapshot_ts);
    ASSERT_TRUE(rerun.ok());
    ASSERT_EQ(rerun->result.documents.size(), replay.size());
    for (const Document& doc : rerun->result.documents) {
      auto it = replay.find(doc.name().CanonicalString());
      ASSERT_NE(it, replay.end());
      EXPECT_TRUE(it->second == doc);
    }
  }
}

TEST_F(RealtimeTest, MultipleQueriesOnConnectionAdvanceTogether) {
  Recorder rec_a, rec_b;
  auto conn = service_.frontend().OpenPrivilegedConnection(kDb);
  Query qa(model::ResourcePath(), "alpha");
  Query qb(model::ResourcePath(), "beta");
  ASSERT_TRUE(service_.frontend().Listen(conn, qa, rec_a.Callback()).ok());
  ASSERT_TRUE(service_.frontend().Listen(conn, qb, rec_b.Callback()).ok());
  // One commit touching both collections.
  ASSERT_TRUE(
      service_
          .Commit(kDb, {Mutation::Set(Path("/alpha/x"),
                                      {{"v", Value::Integer(1)}}),
                        Mutation::Set(Path("/beta/y"),
                                      {{"v", Value::Integer(2)}})})
          .ok());
  Pump();
  ASSERT_EQ(rec_a.snapshots.size(), 2u);
  ASSERT_EQ(rec_b.snapshots.size(), 2u);
  // Both queries observe the same consistent timestamp.
  EXPECT_EQ(rec_a.last().snapshot_ts, rec_b.last().snapshot_ts);
}

TEST_F(RealtimeTest, ManyListenersAllNotified) {
  std::vector<std::unique_ptr<Recorder>> recorders;
  for (int i = 0; i < 50; ++i) {
    auto conn = service_.frontend().OpenPrivilegedConnection(kDb);
    recorders.push_back(std::make_unique<Recorder>());
    ASSERT_TRUE(service_.frontend()
                    .Listen(conn, Query(model::ResourcePath(), "scores"),
                            recorders.back()->Callback())
                    .ok());
  }
  PutAndPump("/scores/game", {{"points", Value::Integer(7)}});
  for (const auto& rec : recorders) {
    ASSERT_EQ(rec->snapshots.size(), 2u);
    EXPECT_EQ(rec->LastIds(), (std::vector<std::string>{"game"}));
  }
}

TEST_F(RealtimeTest, LimitQueryResetsOnChange) {
  PutAndPump("/scores/a", {{"points", Value::Integer(1)}});
  PutAndPump("/scores/b", {{"points", Value::Integer(2)}});
  PutAndPump("/scores/c", {{"points", Value::Integer(3)}});
  Recorder rec;
  auto conn = service_.frontend().OpenPrivilegedConnection(kDb);
  Query q(model::ResourcePath(), "scores");
  q.OrderByField(Field("points"), true).Limit(2);
  ASSERT_TRUE(service_.frontend().Listen(conn, q, rec.Callback()).ok());
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"c", "b"}));
  // Removing `c` pulls `a` into the top-2: requires a reset requery.
  DeleteAndPump("/scores/c");
  Pump();
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"b", "a"}));
  EXPECT_TRUE(rec.last().is_reset);
}

// Delivery follows the Accept: the committing call itself delivers the
// snapshot, with no Pump and no clock advance.
TEST_F(RealtimeTest, CommitDeliversWithoutPump) {
  Recorder rec;
  auto conn = service_.frontend().OpenPrivilegedConnection(kDb);
  ASSERT_TRUE(service_.frontend()
                  .Listen(conn, Query(model::ResourcePath(), "scores"),
                          rec.Callback())
                  .ok());
  auto commit = service_.Commit(
      kDb, {Mutation::Set(Path("/scores/a"), {{"points", Value::Integer(1)}})});
  ASSERT_TRUE(commit.ok());
  ASSERT_EQ(rec.snapshots.size(), 2u);
  EXPECT_FALSE(rec.last().is_reset);
  EXPECT_EQ(rec.last().snapshot_ts, commit->commit_ts);
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"a"}));
}

// A limit query never takes a delta: every change re-runs it at Pump, and
// each of its snapshots is a reset.
TEST_F(RealtimeTest, LimitQueryGetsOnlyResetSnapshots) {
  PutAndPump("/scores/a", {{"points", Value::Integer(1)}});
  Recorder rec;
  auto conn = service_.frontend().OpenPrivilegedConnection(kDb);
  Query q(model::ResourcePath(), "scores");
  q.OrderByField(Field("points"), true).Limit(2);
  ASSERT_TRUE(service_.frontend().Listen(conn, q, rec.Callback()).ok());
  ASSERT_TRUE(service_
                  .Commit(kDb, {Mutation::Set(Path("/scores/b"),
                                              {{"points", Value::Integer(2)}})})
                  .ok());
  EXPECT_EQ(rec.snapshots.size(), 1u);  // waits for Pump's re-run
  Pump();
  PutAndPump("/scores/c", {{"points", Value::Integer(3)}});
  DeleteAndPump("/scores/b");
  ASSERT_EQ(rec.snapshots.size(), 4u);
  for (const QuerySnapshot& s : rec.snapshots) EXPECT_TRUE(s.is_reset);
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"c", "a"}));
}

// Callbacks run outside every lock: one may commit or stop listening from
// inside a delivery. Its commit's snapshot follows once it returns.
TEST_F(RealtimeTest, CallbacksMayCommitAndStopListenReentrantly) {
  ScopedLockOrderChecking checking;
  auto conn = service_.frontend().OpenPrivilegedConnection(kDb);
  Frontend::TargetId stopper = 0;
  int stopper_calls = 0;
  auto stop = service_.frontend().Listen(
      conn, Query(model::ResourcePath(), "scores"),
      [&](const QuerySnapshot& s) {
        ++stopper_calls;
        if (!s.is_reset) {
          EXPECT_TRUE(service_.frontend().StopListen(conn, stopper).ok());
        }
      });
  ASSERT_TRUE(stop.ok());
  stopper = *stop;
  Recorder rec;
  bool echoed = false;
  ASSERT_TRUE(service_.frontend()
                  .Listen(conn, Query(model::ResourcePath(), "scores"),
                          [&](const QuerySnapshot& s) {
                            rec.snapshots.push_back(s);
                            if (s.is_reset || echoed) return;
                            echoed = true;
                            EXPECT_TRUE(
                                service_
                                    .Commit(kDb, {Mutation::Set(
                                                     Path("/scores/echo"),
                                                     {{"points",
                                                       Value::Integer(2)}})})
                                    .ok());
                          })
                  .ok());
  ASSERT_TRUE(service_
                  .Commit(kDb, {Mutation::Set(Path("/scores/a"),
                                              {{"points", Value::Integer(1)}})})
                  .ok());
  ASSERT_EQ(rec.snapshots.size(), 3u);
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"a", "echo"}));
  EXPECT_GT(rec.last().snapshot_ts, rec.snapshots[1].snapshot_ts);
  EXPECT_EQ(stopper_calls, 2);  // initial, then the one that stopped it
  EXPECT_EQ(service_.frontend().active_targets(), 1);
}

// StopListen on one thread while another runs the target's callback: it
// returns only once that callback has, so the caller may then free what the
// callback uses.
TEST_F(RealtimeTest, StopListenWaitsForARunningCallback) {
  ScopedLockOrderChecking checking;
  auto conn = service_.frontend().OpenPrivilegedConnection(kDb);
  std::atomic<int> stage{0};  // 1: a callback is running; 2: it may return
  std::atomic<bool> callback_returned{false};
  auto target = service_.frontend().Listen(
      conn, Query(model::ResourcePath(), "scores"),
      [&](const QuerySnapshot& s) {
        if (s.is_reset) return;
        stage.store(1);
        while (stage.load() != 2) std::this_thread::yield();
        callback_returned.store(true);
      });
  ASSERT_TRUE(target.ok());
  std::thread writer([&] {
    EXPECT_TRUE(service_
                    .Commit(kDb, {Mutation::Set(Path("/scores/a"),
                                                {{"points", Value::Integer(1)}})})
                    .ok());
  });
  while (stage.load() != 1) std::this_thread::yield();
  std::atomic<bool> stopped{false};
  bool returned_first = false;
  std::thread stopper([&] {
    EXPECT_TRUE(service_.frontend().StopListen(conn, *target).ok());
    returned_first = !callback_returned.load();
    stopped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(stopped.load());
  stage.store(2);
  stopper.join();
  writer.join();
  EXPECT_TRUE(stopped.load());
  EXPECT_FALSE(returned_first);
}

// A target whose out-of-sync re-run keeps failing ends with exactly one
// snapshot carrying `error`, which Pump delivers as it tears the target
// down. A StopListen on another thread while that callback runs finds no
// target, and still returns only once the callback has.
TEST_F(RealtimeTest, ResetBudgetEndsInOneErrorSnapshotAndStopListenWaitsForIt) {
  // Its own service: the retry budget is a service option.
  ManualClock clock(1'000'000'000);
  service::FirestoreService::Options options;
  options.frontend_options.reset_retry.max_attempts = 2;
  options.frontend_options.reset_retry.initial_backoff = 5'000;
  options.frontend_options.reset_retry.max_backoff = 10'000;
  service::FirestoreService service(&clock, options);
  FS_CHECK_OK(service.CreateDatabase(kDb));
  auto conn = service.frontend().OpenPrivilegedConnection(kDb);
  std::atomic<int> stage{0};  // 1: the error callback runs; 2: it may return
  std::atomic<bool> callback_returned{false};
  Recorder rec;
  auto target = service.frontend().Listen(
      conn, Query(model::ResourcePath(), "scores"),
      [&](const QuerySnapshot& s) {
        rec.snapshots.push_back(s);
        if (s.error.ok()) return;
        stage.store(1);
        while (stage.load() != 2) std::this_thread::yield();
        callback_returned.store(true);
      });
  ASSERT_TRUE(target.ok());
  ASSERT_EQ(rec.snapshots.size(), 1u);
  ASSERT_EQ(service.frontend().active_targets(), 1);
  {
    FaultConfig config;
    config.action = FaultAction::Drop();
    ScopedFault unknown("committer.outcome_unknown", config);
    ASSERT_EQ(service
                  .Commit(kDb, {Mutation::Set(Path("/scores/a"),
                                              {{"points", Value::Integer(1)}})})
                  .status()
                  .code(),
              StatusCode::kDeadlineExceeded);
  }
  ScopedFault failing("frontend.initial_snapshot");
  std::atomic<bool> pumped{false};
  std::thread pumper([&] {
    for (int i = 0; i < 50 && stage.load() == 0; ++i) {
      clock.AdvanceBy(100'000);
      service.Pump();
    }
    pumped.store(true);
  });
  while (stage.load() != 1 && !pumped.load()) std::this_thread::yield();
  if (stage.load() != 1) {
    pumper.join();
    FAIL() << "Pump never delivered an error snapshot";
  }
  std::atomic<bool> stopped{false};
  bool returned_first = false;
  std::thread stopper([&] {
    EXPECT_EQ(service.frontend().StopListen(conn, *target).code(),
              StatusCode::kNotFound);
    returned_first = !callback_returned.load();
    stopped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(stopped.load());
  stage.store(2);
  stopper.join();
  pumper.join();
  EXPECT_FALSE(returned_first);
  EXPECT_EQ(service.frontend().active_targets(), 0);
  ASSERT_EQ(rec.snapshots.size(), 2u);
  EXPECT_FALSE(rec.last().error.ok());
  // Nothing follows the error: not a retry, not a later commit.
  for (int i = 0; i < 10; ++i) {
    clock.AdvanceBy(100'000);
    service.Pump();
  }
  ASSERT_TRUE(service
                  .Commit(kDb, {Mutation::Set(Path("/scores/b"),
                                              {{"points", Value::Integer(2)}})})
                  .ok());
  clock.AdvanceBy(100'000);
  service.Pump();
  EXPECT_EQ(rec.snapshots.size(), 2u);
}

TEST_F(RealtimeTest, OutOfSyncTriggersTransparentReset) {
  Recorder rec;
  auto conn = service_.frontend().OpenPrivilegedConnection(kDb);
  ASSERT_TRUE(service_.frontend()
                  .Listen(conn, Query(model::ResourcePath(), "scores"),
                          rec.Callback())
                  .ok());
  PutAndPump("/scores/a", {{"points", Value::Integer(1)}});
  ASSERT_EQ(rec.snapshots.size(), 2u);
  // An unknown-outcome write poisons the ranges; listeners must reset.
  const int64_t resets0 = testing::CounterValue("frontend.resets");
  {
    FaultConfig config;
    config.action = FaultAction::Drop();
    ScopedFault fault("committer.outcome_unknown", config);
    auto unknown = service_.Commit(
        kDb, {Mutation::Set(Path("/scores/b"), {{"points",
                                                 Value::Integer(2)}})});
    EXPECT_EQ(unknown.status().code(), StatusCode::kDeadlineExceeded);
  }
  Pump();
  ASSERT_GE(rec.snapshots.size(), 3u);
  EXPECT_TRUE(rec.last().is_reset);
  // The reset snapshot reflects the actually-committed write.
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"a", "b"}));
  EXPECT_GE(testing::CounterValue("frontend.resets") - resets0, 1);
}

TEST_F(RealtimeTest, ThirdPartyListenRequiresRules) {
  Recorder rec;
  auto conn = service_.frontend().OpenConnection(kDb);  // no rules set
  auto target = service_.frontend().Listen(
      conn, Query(model::ResourcePath(), "scores"), rec.Callback());
  EXPECT_EQ(target.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(RealtimeTest, ThirdPartyListenEnforcesRules) {
  ASSERT_TRUE(service_
                  .SetRules(kDb, R"(
                    match /scores/{id} {
                      allow read: if request.auth != null;
                    }
                  )")
                  .ok());
  Recorder rec;
  rules::AuthContext anon;
  auto denied_conn = service_.frontend().OpenConnection(kDb, anon);
  EXPECT_EQ(service_.frontend()
                .Listen(denied_conn, Query(model::ResourcePath(), "scores"),
                        rec.Callback())
                .status()
                .code(),
            StatusCode::kPermissionDenied);
  rules::AuthContext alice;
  alice.authenticated = true;
  alice.uid = "alice";
  auto conn = service_.frontend().OpenConnection(kDb, alice);
  EXPECT_TRUE(service_.frontend()
                  .Listen(conn, Query(model::ResourcePath(), "scores"),
                          rec.Callback())
                  .ok());
}

TEST_F(RealtimeTest, StopListenStopsSnapshots) {
  Recorder rec;
  auto conn = service_.frontend().OpenPrivilegedConnection(kDb);
  auto target = service_.frontend().Listen(
      conn, Query(model::ResourcePath(), "scores"), rec.Callback());
  ASSERT_TRUE(target.ok());
  ASSERT_TRUE(service_.frontend().StopListen(conn, *target).ok());
  PutAndPump("/scores/a", {{"points", Value::Integer(1)}});
  EXPECT_EQ(rec.snapshots.size(), 1u);  // only the initial snapshot
  EXPECT_EQ(service_.frontend().active_targets(), 0);
}

TEST_F(RealtimeTest, TenantIsolationOfNotifications) {
  constexpr char kOther[] = "projects/p/databases/other";
  ASSERT_TRUE(service_.CreateDatabase(kOther).ok());
  Recorder rec;
  auto conn = service_.frontend().OpenPrivilegedConnection(kDb);
  ASSERT_TRUE(service_.frontend()
                  .Listen(conn, Query(model::ResourcePath(), "scores"),
                          rec.Callback())
                  .ok());
  // Write to the *other* database's identical collection.
  ASSERT_TRUE(service_
                  .Commit(kOther, {Mutation::Set(Path("/scores/x"),
                                                 {{"v", Value::Integer(1)}})})
                  .ok());
  Pump();
  EXPECT_EQ(rec.snapshots.size(), 1u);  // nothing delivered
}

// Write triggers end-to-end through the functions dispatcher.
TEST_F(RealtimeTest, TriggersInvokeRegisteredFunction) {
  ASSERT_TRUE(service_
                  .RegisterTrigger(kDb, "onScore", {"scores", "{id}"})
                  .ok());
  std::vector<backend::TriggerEvent> events;
  service_.functions().Register(
      "onScore", [&](const backend::TriggerEvent& e) {
        events.push_back(e);
        return Status::Ok();
      });
  PutAndPump("/scores/a", {{"points", Value::Integer(9)}});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].function_name, "onScore");
  EXPECT_EQ(events[0].change.name.CanonicalString(), "/scores/a");
  EXPECT_EQ(service_.functions().dispatched(), 1);
}

// A query whose collection spans multiple document-name ranges: the
// Frontend must hold back snapshots until EVERY subscribed range's
// watermark passes the timestamp (paper §IV-D4 step 6).
TEST(MultiRangeRealtimeTest, SnapshotWaitsForAllRangeWatermarks) {
  ManualClock clock(1'000'000'000);
  // Place a split point inside the tenant's "scores" collection so the
  // query covers two ranges.
  const std::string db = "projects/p/databases/d";
  std::string split = index::EntityKeyPrefixForCollection(
      db, Path("/scores").Child("m"));
  service::FirestoreService::Options options;
  options.realtime_split_points = {split};
  service::FirestoreService service(&clock, options);
  FS_CHECK_OK(service.CreateDatabase(db));

  Recorder rec;
  auto conn = service.frontend().OpenPrivilegedConnection(db);
  ASSERT_TRUE(service.frontend()
                  .Listen(conn, Query(model::ResourcePath(), "scores"),
                          rec.Callback())
                  .ok());
  // One commit touching documents in BOTH ranges.
  ASSERT_TRUE(service
                  .Commit(db, {Mutation::Set(Path("/scores/alpha"),
                                             {{"v", Value::Integer(1)}}),
                               Mutation::Set(Path("/scores/zeta"),
                                             {{"v", Value::Integer(2)}})})
                  .ok());
  clock.AdvanceBy(100'000);
  service.Pump();
  service.Pump();
  ASSERT_EQ(rec.snapshots.size(), 2u);
  // Both documents arrive in ONE consistent snapshot, not split across two.
  EXPECT_EQ(rec.last().changes.size(), 2u);
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"alpha", "zeta"}));

  // An out-of-sync on one range resets the whole query.
  {
    FaultConfig config;
    config.action = FaultAction::Drop();
    ScopedFault fault("committer.outcome_unknown", config);
    (void)service.Commit(db, {Mutation::Set(Path("/scores/alpha"),
                                            {{"v", Value::Integer(9)}})});
  }
  clock.AdvanceBy(100'000);
  service.Pump();
  service.Pump();
  EXPECT_TRUE(rec.last().is_reset);
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"alpha", "zeta"}));
}

// A commit on one of a listener's two ranges: the idle watermark speaks for
// the other range, so the Accept alone delivers the snapshot.
TEST(MultiRangeRealtimeTest, CommitOnOneRangeDeliversWithoutPump) {
  ManualClock clock(1'000'000'000);
  const std::string db = "projects/p/databases/d";
  service::FirestoreService::Options options;
  options.realtime_split_points = {index::EntityKeyPrefixForCollection(
      db, Path("/scores").Child("m"))};
  service::FirestoreService service(&clock, options);
  FS_CHECK_OK(service.CreateDatabase(db));
  Recorder rec;
  auto conn = service.frontend().OpenPrivilegedConnection(db);
  ASSERT_TRUE(service.frontend()
                  .Listen(conn, Query(model::ResourcePath(), "scores"),
                          rec.Callback())
                  .ok());
  for (const char* name : {"/scores/alpha", "/scores/zeta"}) {
    ASSERT_TRUE(service
                    .Commit(db, {Mutation::Set(Path(name),
                                               {{"v", Value::Integer(1)}})})
                    .ok());
  }
  ASSERT_EQ(rec.snapshots.size(), 3u);
  EXPECT_EQ(rec.snapshots[1].changes.size(), 1u);
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"alpha", "zeta"}));
}

}  // namespace
}  // namespace firestore::frontend
