// Randomized end-to-end property tests for the invariants in DESIGN.md §4:
// serializability under concurrency (3), real-time snapshot correctness (4),
// connection-level consistency (5), and offline convergence (6).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "client/client.h"
#include "common/random.h"
#include "firestore/codec/document_codec.h"
#include "firestore/index/layout.h"
#include "service/service.h"
#include "tests/test_support.h"

namespace firestore {
namespace {

using backend::Mutation;
using model::Document;
using model::Map;
using model::Value;
using query::Query;
using testing::Field;
using testing::Path;

constexpr char kDb[] = "projects/prop/databases/d";

// ---------------------------------------------------------------------------
// Invariant 3: serializability — concurrent transfers preserve the total.

class TransferPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TransferPropertyTest, ConcurrentTransfersPreserveTotal) {
  ManualClock clock(1'000'000'000);
  service::FirestoreService service(&clock);
  ASSERT_TRUE(service.CreateDatabase(kDb).ok());
  constexpr int kAccounts = 6;
  constexpr int64_t kInitial = 100;
  for (int i = 0; i < kAccounts; ++i) {
    ASSERT_TRUE(service
                    .Commit(kDb, {Mutation::Set(
                                     Path("/accounts/a" + std::to_string(i)),
                                     {{"balance",
                                       Value::Integer(kInitial)}})})
                    .ok());
  }
  constexpr int kThreads = 3;
  constexpr int kTransfersPerThread = 15;
  std::vector<std::thread> threads;
  uint64_t seed = GetParam();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(seed * 100 + static_cast<uint64_t>(t));
      for (int i = 0; i < kTransfersPerThread; ++i) {
        int from = static_cast<int>(rng.Uniform(0, kAccounts - 1));
        int to = static_cast<int>(rng.Uniform(0, kAccounts - 1));
        if (from == to) continue;
        int64_t amount = rng.Uniform(1, 10);
        // RunTransaction retries on wound-wait aborts internally.
        auto result = service.RunTransaction(
            kDb,
            [&](spanner::ReadWriteTransaction& txn)
                -> StatusOr<std::vector<Mutation>> {
              auto read_balance =
                  [&](int account) -> StatusOr<int64_t> {
                spanner::Timestamp version = 0;
                ASSIGN_OR_RETURN(
                    spanner::RowValue row,
                    txn.Read(index::kEntitiesTable,
                             index::EntityKey(
                                 kDb, Path("/accounts/a" +
                                           std::to_string(account))),
                             spanner::LockMode::kExclusive, &version));
                FS_CHECK(row.has_value());
                ASSIGN_OR_RETURN(Document doc,
                                 codec::ParseDocument(*row));
                return doc.GetField(Field("balance"))->integer_value();
              };
              ASSIGN_OR_RETURN(int64_t from_balance, read_balance(from));
              ASSIGN_OR_RETURN(int64_t to_balance, read_balance(to));
              return std::vector<Mutation>{
                  Mutation::Merge(
                      Path("/accounts/a" + std::to_string(from)),
                      {{"balance", Value::Integer(from_balance - amount)}}),
                  Mutation::Merge(
                      Path("/accounts/a" + std::to_string(to)),
                      {{"balance", Value::Integer(to_balance + amount)}})};
            });
        // Retries exhausted under heavy contention are acceptable; money
        // must never be created or destroyed either way.
        (void)result;
      }
    });
  }
  for (auto& t : threads) t.join();
  int64_t total = 0;
  for (int i = 0; i < kAccounts; ++i) {
    auto doc = service.Get(kDb, Path("/accounts/a" + std::to_string(i)));
    ASSERT_TRUE(doc.ok() && doc->has_value());
    total += (*doc)->GetField(Field("balance"))->integer_value();
  }
  EXPECT_EQ(total, kAccounts * kInitial);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransferPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Invariants 4 & 5: every delivered snapshot equals a rerun of the query at
// its timestamp, snapshots are monotonic, and queries sharing a connection
// advance to identical timestamps.

class RealtimePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RealtimePropertyTest, SnapshotsMatchRerunsUnderRandomWorkload) {
  ManualClock clock(1'000'000'000);
  service::FirestoreService service(&clock);
  ASSERT_TRUE(service.CreateDatabase(kDb).ok());
  Rng rng(GetParam());

  struct Watch {
    Query query{model::ResourcePath(), ""};
    std::map<std::string, Document> state;
    std::vector<Document> documents;  // the last delivered result list
    spanner::Timestamp last_ts = 0;
    std::vector<spanner::Timestamp> delivered_at;
  };
  // Two queries on ONE connection: alpha (all) and beta (filtered). Two
  // more on connections of their own: rare, on a value few writes carry,
  // so it sits idle for long stretches; and above, inequality-only, so no
  // equality term indexes it in the Query Matcher.
  auto conn = service.frontend().OpenPrivilegedConnection(kDb);
  Watch alpha, beta, rare, above;
  alpha.query = Query(model::ResourcePath(), "alpha");
  beta.query = Query(model::ResourcePath(), "beta");
  beta.query.Where(Field("hot"), query::Operator::kEqual,
                   Value::Boolean(true));
  rare.query = Query(model::ResourcePath(), "beta");
  rare.query.Where(Field("hot"), query::Operator::kEqual, Value::Integer(2));
  above.query = Query(model::ResourcePath(), "alpha");
  above.query.Where(Field("v"), query::Operator::kGreaterThan,
                    Value::Integer(50));
  // Two more join midway, on connections of their own, so their initial
  // reads find documents: after, behind a name cursor that no later
  // document before it may pass; and ranked, ordered by a field its
  // projection leaves out, so it must order full documents and deliver
  // projected ones.
  Watch after, ranked;
  after.query = Query(model::ResourcePath(), "alpha");
  after.query.StartAfterDoc(Document(Path("/alpha/d3"), {}));
  ranked.query = Query(model::ResourcePath(), "beta");
  ranked.query.OrderByField(Field("v")).Project({Field("hot")});
  auto attach = [&](Watch& w, frontend::Frontend::ConnectionId on) {
    auto target = service.frontend().Listen(
        on, w.query, [&w](const frontend::QuerySnapshot& s) {
          if (s.is_reset) w.state.clear();
          for (const auto& change : s.changes) {
            if (change.kind == frontend::ChangeKind::kRemoved) {
              w.state.erase(change.doc.name().CanonicalString());
            } else {
              w.state[change.doc.name().CanonicalString()] = change.doc;
            }
          }
          w.documents = s.documents;
          EXPECT_GE(s.snapshot_ts, w.last_ts);
          w.last_ts = s.snapshot_ts;
          w.delivered_at.push_back(s.snapshot_ts);
        });
    ASSERT_TRUE(target.ok());
  };
  attach(alpha, conn);
  attach(beta, conn);
  attach(rare, service.frontend().OpenPrivilegedConnection(kDb));
  attach(above, service.frontend().OpenPrivilegedConnection(kDb));
  std::vector<Watch*> watches = {&alpha, &beta, &rare, &above};

  // Compares the listener's state, and its last delivered result list in
  // order, with a rerun at `at` (0 = latest).
  auto verify = [&](Watch& w, spanner::Timestamp at) {
    auto rerun = service.RunQuery(kDb, w.query, at);
    ASSERT_TRUE(rerun.ok());
    ASSERT_EQ(rerun->result.documents.size(), w.state.size())
        << w.query.CanonicalString() << " at " << at;
    for (const Document& doc : rerun->result.documents) {
      auto it = w.state.find(doc.name().CanonicalString());
      ASSERT_NE(it, w.state.end());
      EXPECT_TRUE(it->second == doc) << it->second.ToString() << " vs "
                                     << doc.ToString();
    }
    ASSERT_EQ(w.documents.size(), rerun->result.documents.size());
    for (size_t i = 0; i < w.documents.size(); ++i) {
      EXPECT_TRUE(w.documents[i] == rerun->result.documents[i])
          << w.query.CanonicalString() << " at " << i << ": "
          << w.documents[i].ToString() << " vs "
          << rerun->result.documents[i].ToString();
    }
  };

  for (int step = 0; step < 120; ++step) {
    if (step == 60) {
      attach(after, service.frontend().OpenPrivilegedConnection(kDb));
      attach(ranked, service.frontend().OpenPrivilegedConnection(kDb));
      watches.push_back(&after);
      watches.push_back(&ranked);
    }
    // Random mutation in one of the two collections.
    std::string collection = rng.Bernoulli(0.5) ? "alpha" : "beta";
    std::string path =
        "/" + collection + "/d" + std::to_string(rng.Uniform(0, 8));
    if (rng.Bernoulli(0.2)) {
      (void)service.Commit(kDb, {Mutation::Delete(Path(path))});
    } else {
      Map fields;
      fields["v"] = Value::Integer(rng.Uniform(0, 100));
      fields["hot"] = rng.Bernoulli(0.05) ? Value::Integer(2)
                                          : Value::Boolean(rng.Bernoulli(0.5));
      ASSERT_TRUE(
          service.Commit(kDb, {Mutation::Set(Path(path), fields)}).ok());
    }
    // Pump at random intervals so deliveries batch several commits.
    if (rng.Bernoulli(0.4)) {
      size_t alpha_before = alpha.delivered_at.size();
      size_t beta_before = beta.delivered_at.size();
      clock.AdvanceBy(static_cast<Micros>(rng.Uniform(1'000, 200'000)));
      service.Pump();
      service.Pump();
      for (Watch* w : watches) verify(*w, w->last_ts);
      // Invariant 5: snapshots are only delivered at timestamps every query
      // on the connection has reached — so when both queries deliver in the
      // same round, they deliver at the same timestamp. (A query with no
      // relevant changes silently advances and delivers nothing.)
      if (alpha.delivered_at.size() > alpha_before &&
          beta.delivered_at.size() > beta_before) {
        EXPECT_EQ(alpha.last_ts, beta.last_ts);
      }
    }
  }
  // Final drain.
  clock.AdvanceBy(1'000'000);
  service.Pump();
  service.Pump();
  // Every commit is now released and delivered, so each listener, idle or
  // not, holds the latest results.
  for (Watch* w : watches) {
    verify(*w, w->last_ts);
    verify(*w, 0);
  }
  EXPECT_GT(alpha.delivered_at.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RealtimePropertyTest,
                         ::testing::Values(10, 20, 30, 40));

// ---------------------------------------------------------------------------
// Invariant 6: offline convergence — a client that queues writes offline
// converges with the server and a second online client after reconnecting.

class OfflinePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OfflinePropertyTest, RandomDisconnectsConverge) {
  ManualClock clock(1'000'000'000);
  service::FirestoreService service(&clock);
  ASSERT_TRUE(service.CreateDatabase(kDb).ok());
  Rng rng(GetParam());

  client::FirestoreClient flaky(&service, kDb, std::nullopt);
  client::FirestoreClient stable(&service, kDb, std::nullopt);

  auto pump_all = [&] {
    flaky.Pump();
    stable.Pump();
    clock.AdvanceBy(100'000);
    service.Pump();
    service.Pump();
  };

  for (int step = 0; step < 100; ++step) {
    int action = static_cast<int>(rng.Uniform(0, 9));
    std::string path = "/notes/n" + std::to_string(rng.Uniform(0, 6));
    Map fields;
    fields["v"] = Value::Integer(rng.Uniform(0, 1000));
    fields["step"] = Value::Integer(step);  // dropped by a projection below
    switch (action) {
      case 0:
        flaky.SetNetworkEnabled(false);
        break;
      case 1:
        flaky.SetNetworkEnabled(true);
        break;
      case 2:
        if (rng.Bernoulli(0.3)) {
          // Restart mid-flight (persistence keeps the queue).
          flaky.Restart();
        }
        break;
      case 3:
      case 4:
        ASSERT_TRUE(flaky.Set(Path(path), fields).ok());
        break;
      case 5:
        ASSERT_TRUE(flaky.Delete(Path(path)).ok());
        break;
      case 6:
      case 7:
        ASSERT_TRUE(stable.Set(Path(path), fields).ok());
        break;
      default:
        pump_all();
        break;
    }
  }
  // Reconnect and drain everything.
  flaky.SetNetworkEnabled(true);
  for (int i = 0; i < 4; ++i) pump_all();
  EXPECT_FALSE(flaky.local_store().HasPending());
  EXPECT_FALSE(stable.local_store().HasPending());

  // Both clients' views of the collection equal the server's.
  Query q(model::ResourcePath(), "notes");
  auto server = service.RunQuery(kDb, q);
  ASSERT_TRUE(server.ok());
  for (client::FirestoreClient* c : {&flaky, &stable}) {
    auto view = c->RunQuery(q);
    ASSERT_TRUE(view.ok());
    EXPECT_FALSE(view->has_pending_writes);
    ASSERT_EQ(view->documents.size(), server->result.documents.size());
    for (size_t i = 0; i < view->documents.size(); ++i) {
      EXPECT_TRUE(view->documents[i] == server->result.documents[i]);
    }
  }

  // Offline, a query with an order, a cursor and a projection gives the
  // server's answer from the flaky client's cache. (Only that client's:
  // with no listener, the stable client never learns of the flaky client's
  // deletes, so its cache may keep documents the server no longer has.)
  ASSERT_FALSE(server->result.documents.empty());
  Query paged(model::ResourcePath(), "notes");
  paged.OrderByField(Field("v"), /*descending=*/true)
      .StartAfterDoc(
          server->result.documents[server->result.documents.size() / 2])
      .Project({Field("v")});
  auto server_paged = service.RunQuery(kDb, paged);
  ASSERT_TRUE(server_paged.ok());
  flaky.SetNetworkEnabled(false);
  auto offline = flaky.RunQuery(paged);
  ASSERT_TRUE(offline.ok());
  EXPECT_TRUE(offline->from_cache);
  ASSERT_EQ(offline->documents.size(), server_paged->result.documents.size());
  for (size_t i = 0; i < offline->documents.size(); ++i) {
    EXPECT_TRUE(offline->documents[i] == server_paged->result.documents[i])
        << offline->documents[i].ToString() << " vs "
        << server_paged->result.documents[i].ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OfflinePropertyTest,
                         ::testing::Values(100, 200, 300, 400, 500));

// ---------------------------------------------------------------------------
// Multi-threaded service smoke: concurrent tenants writing while listeners
// are live and the pump runs on its own thread. Exercises every lock in the
// Changelog / Matcher / Frontend / Spanner stack; the assertion is
// convergence without crashes or lost notifications.

TEST(ServiceConcurrencyTest, ParallelTenantsWithListenersConverge) {
  RealClock clock;
  service::FirestoreService service(&clock);
  constexpr int kTenants = 3;
  constexpr int kWritesPerTenant = 80;
  std::vector<std::string> dbs;
  struct Listened {
    Mutex mu;
    std::map<std::string, Document> docs FS_GUARDED_BY(mu);
  };
  std::vector<std::unique_ptr<Listened>> views;
  for (int i = 0; i < kTenants; ++i) {
    dbs.push_back("projects/t" + std::to_string(i) + "/databases/d");
    ASSERT_TRUE(service.CreateDatabase(dbs.back()).ok());
    views.push_back(std::make_unique<Listened>());
    auto conn = service.frontend().OpenPrivilegedConnection(dbs.back());
    Listened* view = views.back().get();
    auto target = service.frontend().Listen(
        conn, Query(model::ResourcePath(), "items"),
        [view](const frontend::QuerySnapshot& s) {
          MutexLock lock(&view->mu);
          if (s.is_reset) view->docs.clear();
          for (const auto& change : s.changes) {
            if (change.kind == frontend::ChangeKind::kRemoved) {
              view->docs.erase(change.doc.name().CanonicalString());
            } else {
              view->docs[change.doc.name().CanonicalString()] = change.doc;
            }
          }
        });
    ASSERT_TRUE(target.ok());
  }
  std::atomic<bool> stop{false};
  std::thread pumper([&] {
    while (!stop.load()) {
      service.Pump();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kTenants; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 50);
      for (int i = 0; i < kWritesPerTenant; ++i) {
        std::string path = "/items/i" + std::to_string(rng.Uniform(0, 15));
        Map fields;
        fields["v"] = Value::Integer(i);
        ASSERT_TRUE(service
                        .Commit(dbs[t], {Mutation::Set(testing::Path(path),
                                                       fields)})
                        .ok());
      }
    });
  }
  for (auto& w : writers) w.join();
  // Drain: a few more pump rounds after the last commit.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop = true;
  pumper.join();
  for (int i = 0; i < 3; ++i) service.Pump();

  for (int t = 0; t < kTenants; ++t) {
    auto server =
        service.RunQuery(dbs[t], Query(model::ResourcePath(), "items"));
    ASSERT_TRUE(server.ok());
    MutexLock lock(&views[t]->mu);
    ASSERT_EQ(views[t]->docs.size(), server->result.documents.size())
        << "tenant " << t;
    for (const Document& doc : server->result.documents) {
      auto it = views[t]->docs.find(doc.name().CanonicalString());
      ASSERT_NE(it, views[t]->docs.end());
      EXPECT_TRUE(it->second == doc);
    }
  }
}

}  // namespace
}  // namespace firestore
