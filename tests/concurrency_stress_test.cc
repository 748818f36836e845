// Race-hunting stress suite (docs/STATIC_ANALYSIS.md): multi-threaded
// hammers over the subsystems annotated with FS_GUARDED_BY, sized to finish
// in seconds on one core. Run under `cmake --preset tsan` / `asan` to turn
// every latent data race or lifetime bug into a hard failure; in all builds
// the runtime LockOrderChecker in the Mutex wrapper turns lock-order
// inversions and self-deadlocks into aborts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backend/types.h"
#include "backend/validation.h"
#include "common/clock.h"
#include "common/thread_annotations.h"
#include "common/retry.h"
#include "firestore/codec/ordered_code.h"
#include "firestore/index/layout.h"
#include "firestore/model/document.h"
#include "firestore/query/ab_compare.h"
#include "firestore/query/query.h"
#include "firestore/query/row_reader.h"
#include "service/service.h"
#include "spanner/lock_manager.h"
#include "tests/test_support.h"

namespace firestore {
namespace {

using backend::Mutation;
using model::Map;
using model::Value;
using query::Query;
using ::firestore::testing::CounterValue;
using ::firestore::testing::Field;
using ::firestore::testing::Path;

// Threads per role. One physical core is assumed; the point is interleaving
// under contention, not parallel speedup.
constexpr int kWriters = 2;
constexpr int kOpsPerWriter = 60;

// ---------------------------------------------------------------------------
// Mutex wrapper: deadlock-ordering checks (debug aborts)

// The inversion is observable on a single thread: A->B teaches the checker
// the order, B->A contradicts it. Run out-of-line so EXPECT_DEATH's
// statement stays free of commas (which confuse the macro expansion).
void ProvokeInversion() {
  LockOrderChecker::SetEnabled(true);
  Mutex a;
  Mutex b;
  {
    MutexLock la(&a);
    MutexLock lb(&b);
  }
  MutexLock lb(&b);
  MutexLock la(&a);  // inversion: b held while acquiring a
}

TEST(LockOrderCheckerDeathTest, RecursiveAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu;
  MutexLock lock(&mu);
  EXPECT_DEATH(mu.Lock(), "recursive acquisition");
}

TEST(LockOrderCheckerDeathTest, ReleasingUnheldMutexAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu;
  EXPECT_DEATH(mu.Unlock(), "not held by this thread");
}

TEST(LockOrderCheckerDeathTest, LockOrderInversionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The enable flag is flipped inside the death statement's child process,
  // so the parent's checker state is untouched.
  EXPECT_DEATH(ProvokeInversion(), "lock-order inversion");
}

TEST(LockOrderCheckerTest, ConsistentOrderIsSilent) {
  LockOrderChecker::SetEnabled(true);
  Mutex a, b;
  for (int i = 0; i < 3; ++i) {
    MutexLock la(&a);
    MutexLock lb(&b);
  }
  // Distinct threads using the same order are also fine.
  std::thread t([&] {
    MutexLock la(&a);
    MutexLock lb(&b);
  });
  t.join();
  LockOrderChecker::SetEnabled(false);
}

// ---------------------------------------------------------------------------
// LockManager: wound-wait under heavy cross-thread contention. Every
// transaction either commits (holds all its locks at once) or aborts; the
// lock table must drain to empty either way.

TEST(LockManagerStressTest, WoundWaitHammerDrainsCleanly) {
  spanner::LockManager locks;
  std::atomic<uint64_t> next_txn{1};
  std::atomic<int> committed{0};
  std::atomic<int> aborted{0};

  auto worker = [&](int seed) {
    // Tiny deterministic PRNG; Date-free and racing-thread-safe.
    uint32_t state = 0x9e3779b9u ^ static_cast<uint32_t>(seed);
    auto next = [&state] {
      state = state * 1664525u + 1013904223u;
      return state >> 16;
    };
    for (int i = 0; i < 40; ++i) {
      spanner::TxnId txn = next_txn.fetch_add(1);
      // Lock keys in sorted order (k0 < k1 < ...) as the committer does, so
      // wound-wait (not ordering) is the only conflict-resolution in play.
      bool ok = true;
      int k1 = static_cast<int>(next() % 5);
      int k2 = k1 + 1 + static_cast<int>(next() % 3);
      for (int k : {k1, k2}) {
        std::string key = "rows/k" + std::to_string(k);
        spanner::LockMode mode = (next() % 2 == 0)
                                     ? spanner::LockMode::kShared
                                     : spanner::LockMode::kExclusive;
        if (!locks.Acquire(txn, key, mode, /*timeout_ms=*/1000).ok()) {
          ok = false;
          break;
        }
      }
      locks.ReleaseAll(txn);
      (ok ? committed : aborted).fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();

  EXPECT_EQ(locks.LockCount(), 0);
  EXPECT_EQ(committed.load() + aborted.load(), 4 * 40);
  // Wound-wait must make progress: the vast majority commit.
  EXPECT_GT(committed.load(), 0);
}

// ---------------------------------------------------------------------------
// Whole-service hammer: concurrent committers vs. readers vs. changelog
// subscribers (realtime listeners) vs. tablet splits vs. tenant churn, with
// the lock-order checker armed. This is the test TSan is pointed at.

TEST(ServiceStressTest, CommittersReadersListenersAndSplits) {
  LockOrderChecker::SetEnabled(true);

  ManualClock clock(1'000'000'000);
  // A short retention, so GC drops the churned tenant's versions while the
  // readers and splits race it. It must still outlast any in-flight read
  // (100 pump spins): a strong read whose timestamp falls below the GC
  // horizon fails.
  service::FirestoreService::Options options;
  options.version_retention = 200'000;
  service::FirestoreService service(&clock, options);
  const int64_t gc_dropped_before =
      CounterValue("spanner.gc.versions_dropped");
  constexpr char kDb[] = "projects/p/databases/d";
  constexpr char kChurnDb[] = "projects/churn/databases/d";
  FS_CHECK_OK(service.CreateDatabase(kDb));

  // The delivery contract, checked in every callback: callbacks never
  // overlap, each target's snapshots start with a reset and rise strictly
  // in snapshot_ts, and none runs once StopListen has returned. TargetLog
  // needs no lock of its own beyond `stopped`: only callbacks touch the
  // rest, and they run one at a time.
  struct TargetLog {
    bool seen = false;
    spanner::Timestamp last_ts = 0;
    std::atomic<bool> stopped{false};
  };
  std::atomic<bool> in_callback{false};
  std::atomic<int> overlapping{0};
  std::atomic<int> first_not_reset{0};
  std::atomic<int> ts_not_rising{0};
  std::atomic<int> after_stop{0};
  auto check_delivery = [&](TargetLog& log, const frontend::QuerySnapshot& s) {
    if (in_callback.exchange(true)) overlapping.fetch_add(1);
    if (log.stopped.load()) after_stop.fetch_add(1);
    if (!log.seen && !s.is_reset) first_not_reset.fetch_add(1);
    if (log.seen && s.snapshot_ts <= log.last_ts) ts_not_rising.fetch_add(1);
    log.seen = true;
    log.last_ts = s.snapshot_ts;
    in_callback.store(false);
  };

  // Changelog subscriber: a realtime listener over the hammered collection.
  std::atomic<int> snapshots{0};
  std::atomic<int> max_docs_seen{0};
  TargetLog main_log;
  auto conn = service.frontend().OpenPrivilegedConnection(kDb);
  auto target = service.frontend().Listen(
      conn, Query(model::ResourcePath(), "c"),
      [&](const frontend::QuerySnapshot& s) {
        check_delivery(main_log, s);
        snapshots.fetch_add(1);
        int n = static_cast<int>(s.documents.size());
        int prev = max_docs_seen.load();
        while (n > prev && !max_docs_seen.compare_exchange_weak(prev, n)) {
        }
      });
  ASSERT_TRUE(target.ok());

  std::atomic<bool> done{false};
  std::atomic<int> commits_ok{0};
  std::vector<std::thread> threads;

  // Committers: disjoint document sets, so every commit should succeed.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        std::string path =
            "/c/w" + std::to_string(w) + "_" + std::to_string(i);
        auto result = service.Commit(
            kDb, {Mutation::Set(Path(path),
                                {{"v", Value::Integer(i)},
                                 {"w", Value::Integer(w)}})});
        ASSERT_TRUE(result.ok()) << result.status();
        commits_ok.fetch_add(1);
      }
    });
  }

  // Reader: point reads and queries racing the committers.
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_relaxed)) {
      auto doc = service.Get(kDb, Path("/c/w0_0"));
      ASSERT_TRUE(doc.ok()) << doc.status();
      auto result = service.RunQuery(kDb, Query(model::ResourcePath(), "c"));
      ASSERT_TRUE(result.ok()) << result.status();
    }
  });

  // Pump: advances time and drives Changelog -> Matcher -> Frontend, which
  // invokes the listener callback concurrently with everything else. Paced
  // so that virtual time runs at most 10x wall time: a committer preempted
  // between Prepare and Commit must not see its 2 s kMaxCommitMargin pass,
  // nor a reader its snapshot fall below the GC horizon.
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_relaxed)) {
      clock.AdvanceBy(2'000);
      service.Pump();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Listener churn: targets start and stop while commits are delivered, so
  // an initial snapshot races the incremental ones, and a StopListen the
  // callbacks. The logs are kept, so a callback after its StopListen shows
  // as a count rather than a crash.
  std::vector<std::unique_ptr<TargetLog>> churn_logs;
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_relaxed) && churn_logs.size() < 200) {
      churn_logs.push_back(std::make_unique<TargetLog>());
      TargetLog* log = churn_logs.back().get();
      auto churn_conn = service.frontend().OpenPrivilegedConnection(kDb);
      auto churn = service.frontend().Listen(
          churn_conn, Query(model::ResourcePath(), "c"),
          [&, log](const frontend::QuerySnapshot& s) {
            check_delivery(*log, s);
          });
      ASSERT_TRUE(churn.ok()) << churn.status();
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      ASSERT_TRUE(service.frontend().StopListen(churn_conn, *churn).ok());
      log->stopped.store(true);
      service.frontend().CloseConnection(churn_conn);
    }
  });

  // Tablet splits: load-based splitting of the storage layer underneath the
  // running committers and readers.
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_relaxed)) {
      service.spanner().RunLoadSplitting(/*load_threshold=*/4);
      std::this_thread::yield();
    }
  });

  // Tenant churn: create/delete a second database, racing the data plane's
  // tenant lookups (regression stress for the shared_ptr tenant lifetime).
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_relaxed)) {
      FS_CHECK_OK(service.CreateDatabase(kChurnDb));
      auto commit = service.Commit(
          kChurnDb, {Mutation::Set(Path("/t/x"), {{"v", Value::Integer(1)}})});
      // The commit may race DeleteDatabase below only in future iterations;
      // here the database exists, so it must succeed.
      ASSERT_TRUE(commit.ok()) << commit.status();
      FS_CHECK_OK(service.DeleteDatabase(kChurnDb));
      // After deletion the data plane must refuse cleanly, not crash.
      auto refused = service.Get(kChurnDb, Path("/t/x"));
      ASSERT_EQ(refused.status().code(), StatusCode::kNotFound);
    }
  });

  // The committer threads bound the workload; everything else spins until
  // they finish and GC has dropped versions under the racing threads.
  threads[0].join();
  threads[1].join();
  for (int i = 0; i < 10'000; ++i) {
    if (CounterValue("spanner.gc.versions_dropped") > gc_dropped_before) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true);
  for (size_t i = 2; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(commits_ok.load(), kWriters * kOpsPerWriter);

  // Drain the realtime pipeline: every committed document must eventually
  // appear in one consistent listener snapshot.
  const int total_docs = kWriters * kOpsPerWriter;
  for (int i = 0; i < 50 && max_docs_seen.load() < total_docs; ++i) {
    clock.AdvanceBy(100'000);
    service.Pump();
    service.Pump();
  }
  EXPECT_EQ(max_docs_seen.load(), total_docs);
  EXPECT_GT(snapshots.load(), 0);
  EXPECT_GT(churn_logs.size(), 0u);
  EXPECT_EQ(overlapping.load(), 0);
  EXPECT_EQ(first_not_reset.load(), 0);
  EXPECT_EQ(ts_not_rising.load(), 0);
  EXPECT_EQ(after_stop.load(), 0);

  // Every document is durably readable after the dust settles.
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kOpsPerWriter; ++i) {
      std::string path = "/c/w" + std::to_string(w) + "_" + std::to_string(i);
      auto doc = service.Get(kDb, Path(path));
      ASSERT_TRUE(doc.ok()) << path << ": " << doc.status();
      ASSERT_TRUE(doc->has_value()) << path;
    }
  }

  EXPECT_GT(CounterValue("spanner.gc.versions_dropped"),
            gc_dropped_before);
  EXPECT_GT(service.spanner().GetTable(index::kIndexEntriesTable)
                ->tablet_count(),
            1u);

  FS_CHECK_OK(service.frontend().StopListen(conn, *target));
  service.frontend().CloseConnection(conn);
  LockOrderChecker::SetEnabled(false);
}

// The pump and a closed-loop writer share the delivery of snapshots to slow
// listeners. Whichever delivers stops after the snapshots queued when it
// started, so the writer pays for its own fanout and the pump keeps
// ticking however long the writer runs.
TEST(ServiceStressTest, PumpKeepsTickingUnderAClosedLoopWriter) {
  ManualClock clock(1'000'000'000);
  service::FirestoreService service(&clock);
  constexpr char kDb[] = "projects/p/databases/d";
  FS_CHECK_OK(service.CreateDatabase(kDb));
  // Each commit's fanout takes ~1 ms of callbacks, longer than the commit.
  constexpr int kListeners = 10;
  std::atomic<int> delivered{0};
  auto conn = service.frontend().OpenPrivilegedConnection(kDb);
  for (int i = 0; i < kListeners; ++i) {
    ASSERT_TRUE(service.frontend()
                    .Listen(conn, Query(model::ResourcePath(), "c"),
                            [&](const frontend::QuerySnapshot&) {
                              delivered.fetch_add(1);
                              std::this_thread::sleep_for(
                                  std::chrono::microseconds(100));
                            })
                    .ok());
  }

  // The writer also stops on its own, so a pump it stalls fails the test
  // rather than hanging it.
  std::atomic<bool> done{false};
  std::atomic<int> commits{0};
  const auto writer_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  std::thread writer([&] {
    for (int i = 0; !done.load(std::memory_order_relaxed) &&
                    std::chrono::steady_clock::now() < writer_deadline;
         ++i) {
      auto result = service.Commit(
          kDb, {Mutation::Set(Path("/c/d" + std::to_string(i % 50)),
                              {{"v", Value::Integer(i)}})});
      ASSERT_TRUE(result.ok()) << result.status();
      commits.fetch_add(1);
    }
  });
  // Wait for the writer's fanout to be under way, then pump beside it.
  while (commits.load() < 5) std::this_thread::yield();
  int pumps = 0;
  auto longest_pump = std::chrono::steady_clock::duration::zero();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (std::chrono::steady_clock::now() < deadline) {
    clock.AdvanceBy(2'000);
    const auto start = std::chrono::steady_clock::now();
    service.Pump();
    longest_pump =
        std::max(longest_pump, std::chrono::steady_clock::now() - start);
    ++pumps;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const int writer_commits = commits.load();
  done.store(true);
  writer.join();
  // Unbounded, a Pump that became the deliverer returned only once the
  // writer stopped and its backlog was delivered: seconds.
  EXPECT_LT(longest_pump, std::chrono::milliseconds(500));
  EXPECT_GT(pumps, 20);
  EXPECT_GT(writer_commits, 20);
  EXPECT_GT(delivered.load(), 20 * kListeners);
}

// SetRules and RegisterTrigger replace a tenant's rules and triggers while
// end-user requests evaluate them and a third-party listener's re-runs
// resolve them. Run under TSan: a request must never read a rule set or a
// trigger list that the admin plane frees or reallocates.
TEST(ServiceStressTest, AdminChangesRaceRequests) {
  ManualClock clock(1'000'000'000);
  service::FirestoreService service(&clock);
  constexpr char kDb[] = "projects/p/databases/d";
  constexpr char kRules[] = R"(
    match /c/{id} {
      allow read, write: if request.auth.uid == 'alice';
    }
  )";
  FS_CHECK_OK(service.CreateDatabase(kDb, {kRules}));
  rules::AuthContext alice;
  alice.authenticated = true;
  alice.uid = "alice";

  // A limit query never takes deltas: every write to the collection makes
  // Pump re-run it, through the tenant resolver and the rules.
  std::atomic<int> snapshots{0};
  std::atomic<int> listen_errors{0};
  auto conn = service.frontend().OpenConnection(kDb, alice);
  auto target = service.frontend().Listen(
      conn, Query(model::ResourcePath(), "c").Limit(5),
      [&](const frontend::QuerySnapshot& s) {
        if (!s.error.ok()) listen_errors.fetch_add(1);
        snapshots.fetch_add(1);
      });
  ASSERT_TRUE(target.ok()) << target.status();

  constexpr int kAdminRounds = 100;
  constexpr int kUserOps = 200;
  std::atomic<bool> user_started{false};
  std::atomic<bool> done{false};
  std::thread admin([&] {
    while (!user_started.load()) std::this_thread::yield();
    for (int i = 0; i < kAdminRounds; ++i) {
      EXPECT_TRUE(service.SetRules(kDb, kRules).ok());
      // Matches no write: the committer only walks the list.
      EXPECT_TRUE(service
                      .RegisterTrigger(kDb, "fn" + std::to_string(i),
                                       {"other", "{id}"})
                      .ok());
      std::this_thread::yield();
    }
  });
  std::thread user([&] {
    for (int i = 0; i < kUserOps; ++i) {
      user_started.store(true);
      const std::string path = "/c/d" + std::to_string(i % 10);
      auto put = service.Commit(
          kDb, {Mutation::Set(Path(path), {{"v", Value::Integer(i)}})},
          &alice);
      EXPECT_TRUE(put.ok()) << put.status();
      auto got = service.Get(kDb, Path(path), 0, &alice);
      EXPECT_TRUE(got.ok()) << got.status();
    }
    done.store(true);
  });
  // Virtual time advances 1 ms per pump and no faster than real time, so
  // one slow commit cannot outlive the committer's 2 s commit-timestamp
  // margin (kMaxCommitMargin) and abort.
  int pumps = 0;
  while (!done.load()) {
    clock.AdvanceBy(1'000);
    service.Pump();
    ++pumps;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  admin.join();
  user.join();
  service.Pump();
  EXPECT_TRUE(service.frontend().StopListen(conn, *target).ok());
  service.frontend().CloseConnection(conn);
  EXPECT_GT(pumps, 0);
  EXPECT_GT(snapshots.load(), 1);
  EXPECT_EQ(listen_errors.load(), 0);
}

// Index administration races requests: a composite index is created and
// dropped over and over and fields are exempted while committers write and
// queriers read, strongly and at older timestamps. Every query served must
// equal a brute-force evaluation at its read timestamp, whichever index
// definitions its plan saw; afterwards the index must hold every entry its
// documents need. Run under TSan: requests read catalog snapshots that the
// admin plane replaces.
TEST(ServiceStressTest, IndexAdminRacesRequests) {
  ManualClock clock(1'000'000'000);
  service::FirestoreService service(&clock);
  constexpr char kDb[] = "projects/p/databases/d";
  FS_CHECK_OK(service.CreateDatabase(kDb));
  constexpr int kDocs = 24;
  constexpr int kExemptFields = 3;
  auto doc_fields = [](int seed) {
    Map fields = {{"a", Value::Integer(seed % 3)},
                  {"b", Value::Integer(seed % 4)},
                  {"c", Value::Integer(seed % 5)}};
    fields["x" + std::to_string(seed % kExemptFields)] = Value::Integer(seed);
    return fields;
  };
  for (int i = 0; i < kDocs; ++i) {
    FS_CHECK(service
                 .Commit(kDb, {Mutation::Set(Path("/r/d" + std::to_string(i)),
                                             doc_fields(i))})
                 .ok());
  }

  std::atomic<int> served{0};
  std::atomic<int> stale_served{0};
  std::atomic<spanner::Timestamp> last_commit_ts{
      service.spanner().StrongReadTimestamp()};
  std::atomic<int> running{0};
  std::vector<std::thread> threads;
  auto spawn = [&](auto body) {
    running.fetch_add(1);
    threads.emplace_back([&, body] {
      body();
      running.fetch_sub(1);
    });
  };

  // Retries a retryable admin or commit failure (a backfill batch or a
  // commit can lose a lock conflict); any other failure fails the test.
  auto until_done = [&](auto call) {
    while (true) {
      auto result = call();
      if (result.ok()) return result;
      EXPECT_TRUE(IsRetryableWriteStatus(result.status()))
          << result.status();
      if (!IsRetryableWriteStatus(result.status())) return result;
    }
  };
  spawn([&] {
    for (int round = 0; round < 12; ++round) {
      auto id = until_done([&] {
        return service.CreateCompositeIndex(
            kDb, "r",
            {{Field("a"), index::SegmentKind::kAscending},
             {Field("b"), index::SegmentKind::kAscending}});
      });
      if (round < kExemptFields) {
        const std::string field = "x" + std::to_string(round);
        EXPECT_TRUE(until_done([&]() -> StatusOr<bool> {
                      RETURN_IF_ERROR(
                          service.AddFieldExemption(kDb, "r", Field(field)));
                      return true;
                    }).ok());
      }
      std::this_thread::yield();
      if (!id.ok()) continue;
      EXPECT_TRUE(until_done([&]() -> StatusOr<bool> {
                    RETURN_IF_ERROR(service.DropIndex(kDb, *id));
                    return true;
                  }).ok());
    }
  });
  for (int w = 0; w < kWriters; ++w) {
    spawn([&, w] {
      for (int i = 0; i < 100; ++i) {
        const int seed = w * 1000 + i * 7;
        auto put = until_done([&] {
          return service.Commit(
              kDb, {Mutation::Set(Path("/r/d" + std::to_string(seed % kDocs)),
                                  doc_fields(seed))});
        });
        if (put.ok()) last_commit_ts.store(put->commit_ts);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    spawn([&, r] {
      for (int i = 0; i < 100; ++i) {
        const int64_t v = (r + i) % 3;
        Query q(model::ResourcePath(), "r");
        switch (i % 4) {
          case 0:  // zig-zag of two automatic indexes, or the composite
            q.Where(Field("a"), query::Operator::kEqual, Value::Integer(v))
                .Where(Field("b"), query::Operator::kEqual,
                       Value::Integer(i % 4));
            break;
          case 1:  // the composite only
            q.Where(Field("a"), query::Operator::kEqual, Value::Integer(v))
                .OrderByField(Field("b"));
            break;
          case 2:
            q.Where(Field("c"), query::Operator::kGreaterThan,
                    Value::Integer(v))
                .Limit(5);
            break;
          default:  // an automatic index that an exemption may remove
            q.Where(Field("x" + std::to_string(i % kExemptFields)),
                    query::Operator::kGreaterThanOrEqual, Value::Integer(0));
            break;
        }
        // Every other run of four queries reads at an older timestamp, which
        // may come before a composite index became whole. So each shape
        // runs both strong and stale, and stale reads include shapes 0 and
        // 2, which automatic indexes on never-exempted fields always serve.
        const bool stale = (i / 4) % 2 == 1;
        auto run = service.RunQuery(kDb, q, stale ? last_commit_ts.load() : 0);
        if (!run.ok()) {
          // Served by no index at that timestamp (no composite, or an
          // exempted field): a refusal, never a wrong answer.
          EXPECT_EQ(run.status().code(), StatusCode::kFailedPrecondition)
              << q.CanonicalString() << ": " << run.status();
          continue;
        }
        query::SnapshotRowReader reader(&service.spanner(), run->read_ts);
        auto expected = query::ReferenceEvaluate(reader, kDb, q);
        ASSERT_TRUE(expected.ok()) << expected.status();
        EXPECT_EQ(run->result.documents, *expected)
            << q.CanonicalString() << " via " << run->plan_description
            << " at " << run->read_ts;
        served.fetch_add(1);
        if (stale) stale_served.fetch_add(1);
      }
    });
  }
  // Virtual time advances 1 ms per pump and no faster than real time, so
  // one slow commit cannot outlive the committer's commit-timestamp margin.
  while (running.load() > 0) {
    clock.AdvanceBy(1'000);
    service.Pump();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::thread& t : threads) t.join();

  EXPECT_GT(served.load(), 0);
  EXPECT_GT(stale_served.load(), 0);
  backend::DataValidationService validator(&service.spanner());
  std::shared_ptr<const index::CatalogSnapshot> catalog =
      service.catalog(kDb)->Snapshot();
  auto report = validator.ValidateDatabase(kDb, *catalog);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->missing_entries.empty()) << report->Summary();
  EXPECT_TRUE(report->corrupt_documents.empty()) << report->Summary();
  // A commit whose catalog snapshot still had an index that DropIndex or an
  // exemption then removed can write that index's entries after the
  // backremoval passed them. Such orphans lie under ids the catalog no
  // longer has, where no query reads; one under a live index is an error.
  for (const std::string& key : report->orphan_entries) {
    std::string_view rest = key;
    std::string db;
    index::IndexId id = 0;
    ASSERT_TRUE(codec::ParseBytes(&rest, &db) && codec::ParseInt64(&rest, &id));
    EXPECT_EQ(catalog->Find(id), nullptr) << "orphan under live index " << id;
  }
}

}  // namespace
}  // namespace firestore
