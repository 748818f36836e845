// End-to-end chaos suite (docs/ROBUSTNESS.md): a seeded multi-threaded
// workload — writers, real-time listeners, tablet splits, tenant churn —
// runs while a fault scheduler arms and disarms points from the global
// fault registry. Afterwards all faults are cleared, the pipeline drains,
// and the invariants that must survive any fault schedule are checked:
//
//  - no acknowledged write is lost: reading at its commit timestamp
//    returns exactly the acknowledged value;
//  - no write is duplicated: a counter maintained by read-modify-write
//    transactions ends within [acked, acked + unknown-outcome] increments;
//  - every delivered listener snapshot is timestamp-consistent: re-running
//    the query at snapshot_ts reproduces the delivered result exactly, and
//    the delta stream replays to the full result;
//  - after faults clear, listeners reconverge to the authoritative state
//    and the lock table is drained.
//
// Each scenario is parameterized by seed (fault schedule + retry jitter).
// CI runs the suite in plain, ASan and TSan builds; CHAOS_SEED=<n> runs one
// extra seed, and every assertion carries the seed for reproduction.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "backend/types.h"
#include "common/clock.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "common/retry.h"
#include "common/thread_annotations.h"
#include "firestore/codec/document_codec.h"
#include "firestore/index/layout.h"
#include "firestore/model/document.h"
#include "firestore/query/query.h"
#include "service/service.h"
#include "tests/test_support.h"

namespace firestore {
namespace {

using backend::Mutation;
using model::Document;
using model::Map;
using model::Value;
using query::Query;
using ::firestore::testing::CounterValue;
using ::firestore::testing::Field;
using ::firestore::testing::Path;

constexpr char kDb[] = "projects/p/databases/chaos";
constexpr int kSetWriters = 2;
constexpr int kOpsPerSetWriter = 24;
constexpr int kTxnWriters = 2;
constexpr int kOpsPerTxnWriter = 12;
constexpr int kKeys = 12;  // shared pool; contention is the point

std::string KeyPath(int i) { return "/chaos/k" + std::to_string(i); }

// ---------------------------------------------------------------------------
// Write ledger: what the application believes happened.

struct AckedWrite {
  std::string path;
  int64_t value = 0;
  spanner::Timestamp commit_ts = 0;
};

struct WriteLedger {
  Mutex mu;
  std::vector<AckedWrite> acked FS_GUARDED_BY(mu);
  // Writes whose commit outcome was reported unknown: they may or may not
  // be durable, but nothing else may appear under these keys.
  std::map<std::string, std::set<int64_t>> unknown FS_GUARDED_BY(mu);
  int txn_acked FS_GUARDED_BY(mu) = 0;
  int txn_unknown FS_GUARDED_BY(mu) = 0;

  void Ack(std::string path, int64_t value, spanner::Timestamp ts) {
    MutexLock lock(&mu);
    acked.push_back({std::move(path), value, ts});
  }
  void Unknown(const std::string& path, int64_t value) {
    MutexLock lock(&mu);
    unknown[path].insert(value);
  }
};

// ---------------------------------------------------------------------------
// Listener recorder: replays the delta stream against a local model and
// keeps every delivered (snapshot_ts, result) pair for later MVCC checks.

struct HistoryEntry {
  spanner::Timestamp ts = 0;
  bool is_reset = false;
  std::map<std::string, int64_t> docs;
};

struct ChaosRecorder {
  Mutex mu;
  std::map<std::string, int64_t> model FS_GUARDED_BY(mu);
  std::vector<HistoryEntry> history FS_GUARDED_BY(mu);
  std::vector<std::string> violations FS_GUARDED_BY(mu);
  spanner::Timestamp last_ts FS_GUARDED_BY(mu) = 0;
  bool alive FS_GUARDED_BY(mu) = false;
  int terminal_errors FS_GUARDED_BY(mu) = 0;

  frontend::SnapshotCallback Callback() {
    return [this](const frontend::QuerySnapshot& s) { OnSnapshot(s); };
  }

  void OnSnapshot(const frontend::QuerySnapshot& s) {
    MutexLock lock(&mu);
    if (!s.error.ok()) {
      // Out-of-sync recovery exhausted its budget; the stream is dead. The
      // supervisor opens a fresh one, which starts a new timestamp domain.
      alive = false;
      ++terminal_errors;
      last_ts = 0;
      return;
    }
    if (s.snapshot_ts < last_ts) {
      violations.push_back("snapshot_ts regressed: " +
                           std::to_string(s.snapshot_ts) + " < " +
                           std::to_string(last_ts));
    }
    last_ts = s.snapshot_ts;
    if (s.is_reset) {
      model.clear();
      for (const Document& doc : s.documents) {
        model[doc.name().CanonicalString()] =
            doc.GetField(Field("v"))->integer_value();
      }
    } else {
      for (const frontend::SnapshotChange& change : s.changes) {
        std::string name = change.doc.name().CanonicalString();
        if (change.kind == frontend::ChangeKind::kRemoved) {
          model.erase(name);
        } else {
          model[name] = change.doc.GetField(Field("v"))->integer_value();
        }
      }
    }
    // The replayed delta stream must reproduce the full result.
    std::map<std::string, int64_t> full;
    for (const Document& doc : s.documents) {
      full[doc.name().CanonicalString()] =
          doc.GetField(Field("v"))->integer_value();
    }
    if (full != model) {
      violations.push_back("delta replay diverged from full result at ts=" +
                           std::to_string(s.snapshot_ts));
      model = full;  // resync so one divergence reports once
    }
    history.push_back({s.snapshot_ts, s.is_reset, std::move(full)});
  }
};

// ---------------------------------------------------------------------------
// Fault schedule: the catalog of points the scheduler rotates through.

struct FaultChoice {
  const char* point;
  FaultAction action;
  double probability;
};

std::vector<FaultChoice> FaultMenu() {
  return {
      {"spanner.txn.read", FaultAction::Fail(UnavailableError("chaos")), 0.2},
      {"spanner.txn.read", FaultAction::Latency(300), 0.4},
      {"spanner.txn.commit", FaultAction::Fail(UnavailableError("chaos")),
       0.2},
      {"spanner.snapshot.read", FaultAction::Fail(UnavailableError("chaos")),
       0.2},
      {"spanner.snapshot.scan", FaultAction::Fail(UnavailableError("chaos")),
       0.2},
      {"spanner.lock.acquire", FaultAction::Fail(UnavailableError("chaos")),
       0.1},
      {"spanner.queue.push.drop", FaultAction::Drop(), 0.2},
      {"rtcache.prepare", FaultAction::Fail(UnavailableError("chaos")), 0.2},
      {"rtcache.accept.drop", FaultAction::Drop(), 0.2},
      {"committer.prepare", FaultAction::Fail(UnavailableError("chaos")),
       0.2},
      {"committer.commit", FaultAction::Fail(AbortedError("chaos")), 0.2},
      {"committer.outcome_unknown", FaultAction::Drop(), 0.1},
      {"service.commit", FaultAction::Fail(UnavailableError("chaos")), 0.2},
      {"service.run_transaction",
       FaultAction::Fail(UnavailableError("chaos")), 0.2},
      {"service.query", FaultAction::Fail(UnavailableError("chaos")), 0.15},
      {"frontend.initial_snapshot",
       FaultAction::Fail(UnavailableError("chaos")), 0.3},
  };
}

// ---------------------------------------------------------------------------
// The scenario.

void RunChaos(uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  LockOrderChecker::SetEnabled(true);

  ManualClock clock(1'000'000'000);
  service::FirestoreService::Options options;
  options.frontend_options.reset_retry.max_attempts = 6;
  options.frontend_options.reset_retry.initial_backoff = 5'000;
  options.frontend_options.reset_retry.max_backoff = 100'000;
  options.frontend_options.retry_seed = seed;
  // A retention far below the virtual time the run advances (see the
  // seeding below), so the pump thread's GC drops versions under chaos.
  options.version_retention = 30'000'000;
  service::FirestoreService service(&clock, options);
  const int64_t gc_dropped_before =
      CounterValue("spanner.gc.versions_dropped");
  FS_CHECK_OK(service.CreateDatabase(kDb));
  service.spanner().set_lock_timeout_ms(50);
  FaultRegistry::Global().SetLatencyClock(&clock);

  // Seed every key so read-modify-write bodies always find a row and the
  // initial listener snapshot is non-trivial. Seeded twice, then the clock
  // jumps ten retentions: the pump thread's first GC drops the first pass's
  // versions, and GC runs every spin alongside the workload. Every read the
  // invariants make is at a timestamp after the jump, and the workload plus
  // the drain span a few virtual seconds, so none falls below the horizon.
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kKeys; ++i) {
      FS_CHECK(service
                   .Commit(kDb, {Mutation::Set(Path(KeyPath(i)),
                                               {{"v", Value::Integer(0)}})})
                   .ok());
    }
  }
  FS_CHECK(service
               .Commit(kDb, {Mutation::Set(Path("/chaos/counter"),
                                           {{"v", Value::Integer(0)}})})
               .ok());

  clock.AdvanceBy(10 * options.version_retention);

  WriteLedger ledger;
  ChaosRecorder recorder;
  Query chaos_query(model::ResourcePath(), "chaos");

  auto listen = [&]() -> bool {
    auto conn = service.frontend().OpenPrivilegedConnection(kDb);
    auto target =
        service.frontend().Listen(conn, chaos_query, recorder.Callback());
    if (!target.ok()) {
      service.frontend().CloseConnection(conn);
      return false;
    }
    MutexLock lock(&recorder.mu);
    recorder.alive = true;
    return true;
  };
  ASSERT_TRUE(listen());  // no faults armed yet: must succeed

  std::atomic<bool> writers_done{false};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> next_value{1};
  std::vector<std::thread> threads;

  // Pump: drives Changelog -> Matcher -> Frontend and the maintenance loop
  // while virtual time advances.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      clock.AdvanceBy(3'000);
      service.Pump();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Fault scheduler: arms a random subset of the menu, lets the workload
  // run into it, disarms, repeats. Every decision derives from the seed.
  // Writers hold their ops until the first window is armed — under
  // sanitizer slowdown the scheduler thread can otherwise be starved past
  // the whole workload, leaving a fault-free (vacuous) run.
  std::atomic<bool> first_armed{false};
  auto total_fault_fires = [] {
    int64_t total = 0;
    for (const FaultPointStats& p : FaultRegistry::Global().KnownPoints()) {
      total += p.total_fires;
    }
    return total;
  };
  threads.emplace_back([&] {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    std::vector<FaultChoice> menu = FaultMenu();
    bool first_window = true;
    while (!writers_done.load(std::memory_order_relaxed)) {
      std::vector<const char*> armed;
      int picks = static_cast<int>(rng.Uniform(1, 3));
      for (int i = 0; i < picks; ++i) {
        const FaultChoice& choice = menu[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(menu.size()) - 1))];
        FaultConfig config;
        config.probability = choice.probability;
        config.seed = rng.Uniform(1, 1'000'000);
        config.action = choice.action;
        FaultRegistry::Global().Arm(choice.point, config);
        armed.push_back(choice.point);
      }
      if (first_window) {
        // Guarantee the schedule is non-vacuous: the first window also
        // arms a benign latency point every writer hits on entry, at
        // probability 1, and holds until a fire is recorded — however
        // slowly the workload threads get scheduled under a sanitizer.
        FaultConfig config;
        config.probability = 1.0;
        config.seed = rng.Uniform(1, 1'000'000);
        config.action = FaultAction::Latency(300);
        FaultRegistry::Global().Arm("service.commit", config);
        armed.push_back("service.commit");
      }
      first_armed.store(true, std::memory_order_release);
      if (first_window) {
        first_window = false;
        for (int i = 0; i < 20'000 && total_fault_fires() == 0 &&
                        !writers_done.load(std::memory_order_relaxed);
             ++i) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      } else {
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.Uniform(500, 2'000)));
      }
      for (const char* point : armed) {
        FaultRegistry::Global().Disarm(point);
      }
      // Occasional healthy window so the pipeline can make progress.
      if (rng.Uniform(0, 3) == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
    FaultRegistry::Global().DisarmAll();
  });

  // Blind writers: last-write-wins Sets over the shared key pool, each
  // wrapped in the unified retry policy.
  auto await_first_arm = [&] {
    for (int i = 0; i < 20'000 && !first_armed.load(std::memory_order_acquire);
         ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };

  for (int w = 0; w < kSetWriters; ++w) {
    threads.emplace_back([&, w] {
      await_first_arm();
      Rng rng(seed + static_cast<uint64_t>(w) * 7919);
      RetryPolicy policy;
      policy.max_attempts = 6;
      policy.initial_backoff = 2'000;
      policy.max_backoff = 50'000;
      for (int i = 0; i < kOpsPerSetWriter; ++i) {
        std::string path = KeyPath(static_cast<int>(rng.Uniform(0, kKeys - 1)));
        int64_t value = next_value.fetch_add(1);
        RetryState retry(policy, seed ^ rng.Uniform(1, 1 << 30));
        while (true) {
          auto result = service.Commit(
              kDb, {Mutation::Set(Path(path), {{"v", Value::Integer(value)}})});
          if (result.ok()) {
            ledger.Ack(path, value, result->commit_ts);
            break;
          }
          if (result.status().message().find("outcome unknown") !=
              std::string::npos) {
            ledger.Unknown(path, value);
            break;
          }
          Micros delay = 0;
          if (!retry.ShouldRetryWrite(result.status(), &delay)) {
            break;  // definitively failed: nothing durable
          }
          clock.AdvanceBy(std::min<Micros>(delay, 20'000));
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  // Transactional writers: contended read-modify-write increments of one
  // counter document (the committer's own retry loop handles wound-wait
  // aborts and lock-wait timeouts).
  for (int w = 0; w < kTxnWriters; ++w) {
    threads.emplace_back([&, w] {
      await_first_arm();
      for (int i = 0; i < kOpsPerTxnWriter; ++i) {
        int64_t written = 0;
        auto result = service.RunTransaction(
            kDb,
            [&](spanner::ReadWriteTransaction& txn)
                -> StatusOr<std::vector<Mutation>> {
              ASSIGN_OR_RETURN(
                  spanner::RowValue row,
                  txn.Read(index::kEntitiesTable,
                           index::EntityKey(kDb, Path("/chaos/counter")),
                           spanner::LockMode::kExclusive));
              FS_CHECK(row.has_value());
              ASSIGN_OR_RETURN(Document doc, codec::ParseDocument(*row));
              written = doc.GetField(Field("v"))->integer_value() + 1;
              return std::vector<Mutation>{Mutation::Merge(
                  Path("/chaos/counter"), {{"v", Value::Integer(written)}})};
            });
        MutexLock lock(&ledger.mu);
        if (result.ok()) {
          ledger.acked.push_back({"/chaos/counter", written,
                                  result->commit_ts});
          ++ledger.txn_acked;
        } else if (result.status().message().find("outcome unknown") !=
                   std::string::npos) {
          ++ledger.txn_unknown;
        }
        // Any other failure aborted before applying: not durable.
      }
    });
  }

  // Tablet splits underneath the running workload.
  threads.emplace_back([&] {
    while (!writers_done.load(std::memory_order_relaxed)) {
      service.spanner().RunLoadSplitting(/*load_threshold=*/4);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  // Tenant churn: create, use, delete. Faults may fail any step; the data
  // plane must stay consistent for everyone else.
  threads.emplace_back([&] {
    int generation = 0;
    while (!writers_done.load(std::memory_order_relaxed)) {
      std::string db =
          "projects/churn/databases/g" + std::to_string(generation++);
      FS_CHECK_OK(service.CreateDatabase(db));
      (void)service.Commit(
          db, {Mutation::Set(Path("/t/x"), {{"v", Value::Integer(1)}})});
      (void)service.RunQuery(db, Query(model::ResourcePath(), "t"));
      (void)service.DeleteDatabase(db);
      std::this_thread::sleep_for(std::chrono::microseconds(700));
    }
  });

  // Listener supervisor: when out-of-sync recovery gives up and delivers a
  // terminal error, open a fresh stream (which may itself fail under fault
  // and is then retried here).
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      bool alive;
      {
        MutexLock lock(&recorder.mu);
        alive = recorder.alive;
      }
      if (!alive) (void)listen();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  // Writer threads are threads[2 + 1] .. — join them, then wind down.
  const size_t first_writer = 2;
  const size_t num_writers = kSetWriters + kTxnWriters;
  for (size_t i = first_writer; i < first_writer + num_writers; ++i) {
    threads[i].join();
  }
  writers_done.store(true);
  stop.store(true);
  for (size_t i = 0; i < threads.size(); ++i) {
    if (i < first_writer || i >= first_writer + num_writers) {
      threads[i].join();
    }
  }

  // -- Faults over; drain and verify. --
  FaultRegistry::Global().DisarmAll();
  {
    MutexLock lock(&recorder.mu);
    if (!recorder.alive) recorder.last_ts = 0;
  }
  for (int i = 0; i < 40; ++i) {
    bool alive;
    {
      MutexLock lock(&recorder.mu);
      alive = recorder.alive;
    }
    if (alive) break;
    ASSERT_LT(i, 39) << "listener failed to re-attach with faults cleared";
    (void)listen();
  }
  // A dropped Accept only surfaces as out-of-sync once its prepare expires
  // (the Committer's kMaxCommitMargin 2 s + the Changelog's kAcceptGrace
  // 0.5 s = 2.5 s virtual); drain well past it.
  for (int i = 0; i < 500; ++i) {
    clock.AdvanceBy(10'000);
    service.Pump();
    service.Pump();
  }

  // Invariant 1: every acknowledged write is durable at its commit
  // timestamp with exactly the acknowledged value.
  std::vector<AckedWrite> acked;
  std::map<std::string, std::set<int64_t>> unknown;
  int txn_acked, txn_unknown;
  {
    MutexLock lock(&ledger.mu);
    acked = ledger.acked;
    unknown = ledger.unknown;
    txn_acked = ledger.txn_acked;
    txn_unknown = ledger.txn_unknown;
  }
  EXPECT_FALSE(acked.empty()) << "chaos schedule failed every single write";
  for (const AckedWrite& w : acked) {
    auto doc = service.Get(kDb, Path(w.path), w.commit_ts);
    ASSERT_TRUE(doc.ok()) << w.path << "@" << w.commit_ts << ": "
                          << doc.status();
    ASSERT_TRUE(doc->has_value()) << "acked write lost: " << w.path << "@"
                                  << w.commit_ts;
    EXPECT_EQ((*doc)->GetField(Field("v"))->integer_value(), w.value)
        << "acked write overwritten in place: " << w.path;
  }

  // Invariant 2: the transactional counter saw each acked increment exactly
  // once; unknown-outcome increments may or may not have landed, nothing
  // else may move it.
  auto counter = service.Get(kDb, Path("/chaos/counter"));
  ASSERT_TRUE(counter.ok() && counter->has_value());
  int64_t final_count = (*counter)->GetField(Field("v"))->integer_value();
  EXPECT_GE(final_count, txn_acked) << "acked increment lost";
  EXPECT_LE(final_count, txn_acked + txn_unknown) << "increment duplicated";

  // Invariant 3: every delivered snapshot was timestamp-consistent — the
  // query re-run at snapshot_ts reproduces the delivered result.
  std::vector<HistoryEntry> history;
  std::vector<std::string> violations;
  std::map<std::string, int64_t> final_model;
  int terminal_errors;
  {
    MutexLock lock(&recorder.mu);
    history = recorder.history;
    violations = recorder.violations;
    final_model = recorder.model;
    terminal_errors = recorder.terminal_errors;
  }
  EXPECT_TRUE(violations.empty())
      << violations.size() << " stream violations, first: " << violations[0];
  ASSERT_FALSE(history.empty());
  for (const HistoryEntry& entry : history) {
    auto replay = service.RunQuery(kDb, chaos_query, entry.ts);
    ASSERT_TRUE(replay.ok()) << "replay at ts=" << entry.ts << ": "
                             << replay.status();
    std::map<std::string, int64_t> expected;
    for (const Document& doc : replay->result.documents) {
      expected[doc.name().CanonicalString()] =
          doc.GetField(Field("v"))->integer_value();
    }
    std::string acked_log;
    if (entry.docs != expected) {
      for (const AckedWrite& w : acked) {
        acked_log += "\n  acked " + w.path + "=" +
                     std::to_string(w.value) + " @" +
                     std::to_string(w.commit_ts);
      }
    }
    ASSERT_EQ(entry.docs, expected)
        << "snapshot at ts=" << entry.ts
        << (entry.is_reset ? " (reset)" : " (incremental)")
        << " not timestamp-consistent" << acked_log;
  }

  // Invariant 4: convergence — the surviving listener's model matches the
  // authoritative query result, every present value is one the application
  // actually wrote, and the lock table is drained.
  auto authoritative = service.RunQuery(kDb, chaos_query);
  ASSERT_TRUE(authoritative.ok());
  std::map<std::string, int64_t> truth;
  for (const Document& doc : authoritative->result.documents) {
    truth[doc.name().CanonicalString()] =
        doc.GetField(Field("v"))->integer_value();
  }
  EXPECT_EQ(final_model, truth) << "listener did not reconverge";

  std::map<std::string, std::set<int64_t>> admissible;
  for (int i = 0; i < kKeys; ++i) admissible[KeyPath(i)].insert(0);
  admissible["/chaos/counter"];  // checked via invariant 2
  for (const AckedWrite& w : acked) admissible[w.path].insert(w.value);
  for (const auto& [path, values] : unknown) {
    admissible[path].insert(values.begin(), values.end());
  }
  for (const auto& [name, value] : truth) {
    if (name == "/chaos/counter") continue;
    EXPECT_TRUE(admissible[name].count(value) != 0)
        << "phantom value " << value << " at " << name;
  }
  EXPECT_EQ(service.spanner().lock_manager().LockCount(), 0);
  EXPECT_GT(CounterValue("spanner.gc.versions_dropped"), gc_dropped_before)
      << "GC dropped no version under chaos";
  EXPECT_GT(service.spanner().GetTable(index::kIndexEntriesTable)
                ->tablet_count(),
            1u)
      << "load splitting split no IndexEntries tablet under chaos";

  (void)terminal_errors;  // informational; terminal teardown is legal

  FaultRegistry::Global().SetLatencyClock(nullptr);
  LockOrderChecker::SetEnabled(false);

  // The run is only interesting if faults actually fired. The writers wait
  // for the first armed window (which fires deterministically on the first
  // commit), so a zero-fire run requires the scheduler thread to be starved
  // past the writers' entire wait budget — skip rather than fail a run
  // whose invariants all held.
  int64_t total_fires = 0;
  for (const FaultPointStats& p : FaultRegistry::Global().KnownPoints()) {
    total_fires += p.total_fires;
  }
  if (total_fires == 0) {
    GTEST_SKIP() << "fault schedule never fired (vacuous run)";
  }
}

class ChaosTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void TearDown() override {
    FaultRegistry::Global().DisarmAll();
    FaultRegistry::Global().SetLatencyClock(nullptr);
  }
};

TEST_P(ChaosTest, SeededFaultScheduleKeepsInvariants) { RunChaos(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// CI's seed matrix: CHAOS_SEED=<n> exercises one extra schedule per job.
TEST(ChaosEnvTest, RunsSeedFromEnvironment) {
  const char* env = std::getenv("CHAOS_SEED");
  if (env == nullptr) GTEST_SKIP() << "CHAOS_SEED not set";
  RunChaos(std::strtoull(env, nullptr, 10));
  FaultRegistry::Global().DisarmAll();
  FaultRegistry::Global().SetLatencyClock(nullptr);
}

}  // namespace
}  // namespace firestore
