// Tests of the Mobile/Web SDK simulation: disconnected operation, latency
// compensation, reconciliation, persistence, optimistic transactions.

#include <gtest/gtest.h>

#include "client/client.h"
#include "common/fault_injection.h"
#include "common/retry.h"
#include "service/service.h"
#include "tests/test_support.h"

namespace firestore::client {
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

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() : clock_(1'000'000'000), service_(&clock_) {
    FS_CHECK_OK(service_.CreateDatabase(kDb));
    // A Server SDK client: rules are bypassed for these tests.
    client_ = std::make_unique<FirestoreClient>(&service_, kDb, std::nullopt);
  }

  void Pump() {
    client_->Pump();
    clock_.AdvanceBy(100'000);
    service_.Pump();
    service_.Pump();
  }

  ManualClock clock_;
  service::FirestoreService service_;
  std::unique_ptr<FirestoreClient> client_;
};

struct ViewRecorder {
  std::vector<ViewSnapshot> views;
  ViewCallback Callback() {
    return [this](const ViewSnapshot& v) { views.push_back(v); };
  }
  const ViewSnapshot& last() const { return views.back(); }
  std::vector<std::string> LastIds() const {
    std::vector<std::string> ids;
    for (const auto& doc : last().documents) {
      ids.push_back(doc.name().last_segment());
    }
    return ids;
  }
};

// ---------------------------------------------------------------------------
// Basic reads/writes

TEST_F(ClientTest, WriteIsAcknowledgedLocallyThenFlushed) {
  ASSERT_TRUE(client_->Set(Path("/notes/n1"),
                           {{"text", Value::String("hello")}})
                  .ok());
  // Visible locally before any network round trip.
  auto local = client_->Get(Path("/notes/n1"));
  ASSERT_TRUE(local.ok());
  ASSERT_TRUE(local->has_value());
  EXPECT_TRUE(client_->local_store().HasPending());
  // After pumping, the server has it and the queue is drained.
  Pump();
  EXPECT_FALSE(client_->local_store().HasPending());
  auto server = service_.Get(kDb, Path("/notes/n1"));
  ASSERT_TRUE(server.ok());
  EXPECT_TRUE(server->has_value());
  EXPECT_EQ(client_->writes_flushed(), 1);
}

TEST_F(ClientTest, FlushBacksOffRetriesAndDropsRejectedWrites) {
  auto flush_hits = [] {
    return FaultRegistry::Global().StatsFor("client.flush").hits;
  };
  auto on_server = [&](const char* path) {
    auto doc = service_.Get(kDb, Path(path));
    return doc.ok() && doc->has_value();
  };
  auto fail_once = [](Status status) {
    FaultConfig config;
    config.action = FaultAction::Fail(std::move(status));
    config.max_fires = 1;
    return config;
  };
  {
    // Transient: the write stays queued. With no backoff history the first
    // delay is exactly the default policy's initial_backoff, 10 ms.
    ScopedFault fault("client.flush", fail_once(UnavailableError("down")));
    ASSERT_TRUE(client_->Set(Path("/notes/a"), {{"v", Value::Integer(1)}})
                    .ok());
    client_->Pump();
    EXPECT_EQ(flush_hits(), 1);
    EXPECT_TRUE(client_->local_store().HasPending());
    clock_.AdvanceBy(5'000);
    client_->Pump();
    EXPECT_EQ(flush_hits(), 1);  // still backing off: no second attempt
    clock_.AdvanceBy(5'000);
    client_->Pump();
    EXPECT_EQ(flush_hits(), 2);
    EXPECT_FALSE(client_->local_store().HasPending());
    EXPECT_TRUE(on_server("/notes/a"));
  }
  {
    // A server retry-after hint lengthens the backoff to 50 ms.
    ScopedFault fault("client.flush",
                      fail_once(WithRetryAfter(
                          ResourceExhaustedError("over limit"), 50'000)));
    ASSERT_TRUE(client_->Set(Path("/notes/b"), {{"v", Value::Integer(1)}})
                    .ok());
    client_->Pump();
    clock_.AdvanceBy(10'000);
    client_->Pump();
    EXPECT_EQ(flush_hits(), 1);
    EXPECT_TRUE(client_->local_store().HasPending());
    clock_.AdvanceBy(40'000);
    client_->Pump();
    EXPECT_FALSE(client_->local_store().HasPending());
    EXPECT_TRUE(on_server("/notes/b"));
  }
  {
    // Permanent rejection: the write is dropped, not retried.
    ScopedFault fault("client.flush",
                      fail_once(PermissionDeniedError("denied")));
    ASSERT_TRUE(client_->Set(Path("/notes/c"), {{"v", Value::Integer(1)}})
                    .ok());
    client_->Pump();
    EXPECT_FALSE(client_->local_store().HasPending());
    EXPECT_EQ(client_->write_errors(), 1);
    EXPECT_FALSE(on_server("/notes/c"));
  }
  EXPECT_EQ(client_->writes_flushed(), 2);
}

TEST_F(ClientTest, GetFallsThroughToServerAndCaches) {
  ASSERT_TRUE(service_
                  .Commit(kDb, {Mutation::Set(Path("/notes/remote"),
                                              {{"v", Value::Integer(1)}})})
                  .ok());
  auto doc = client_->Get(Path("/notes/remote"));
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(doc->has_value());
  EXPECT_EQ(client_->local_store().cached_documents(), 1u);
  // Now offline: the cached copy still serves.
  client_->SetNetworkEnabled(false);
  auto cached = client_->Get(Path("/notes/remote"));
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->has_value());
}

TEST_F(ClientTest, OfflineGetOfUncachedDocumentFails) {
  client_->SetNetworkEnabled(false);
  auto doc = client_->Get(Path("/notes/never-seen"));
  EXPECT_EQ(doc.status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// Disconnected operation

TEST_F(ClientTest, OfflineWritesQueueAndFlushOnReconnect) {
  client_->SetNetworkEnabled(false);
  ASSERT_TRUE(client_->Set(Path("/notes/a"), {{"v", Value::Integer(1)}}).ok());
  ASSERT_TRUE(client_->Set(Path("/notes/b"), {{"v", Value::Integer(2)}}).ok());
  EXPECT_EQ(client_->local_store().pending().size(), 2u);
  // Server has nothing yet.
  EXPECT_FALSE(service_.Get(kDb, Path("/notes/a"))->has_value());
  // Reconnect: automatic reconciliation.
  client_->SetNetworkEnabled(true);
  Pump();
  EXPECT_FALSE(client_->local_store().HasPending());
  EXPECT_TRUE(service_.Get(kDb, Path("/notes/a"))->has_value());
  EXPECT_TRUE(service_.Get(kDb, Path("/notes/b"))->has_value());
}

TEST_F(ClientTest, OfflineQueryServesFromCache) {
  ASSERT_TRUE(service_
                  .Commit(kDb, {Mutation::Set(Path("/notes/x"),
                                              {{"v", Value::Integer(1)}})})
                  .ok());
  Query q(model::ResourcePath(), "notes");
  auto online = client_->RunQuery(q);  // populates the cache
  ASSERT_TRUE(online.ok());
  EXPECT_FALSE(online->from_cache);
  client_->SetNetworkEnabled(false);
  auto offline = client_->RunQuery(q);
  ASSERT_TRUE(offline.ok());
  EXPECT_TRUE(offline->from_cache);
  ASSERT_EQ(offline->documents.size(), 1u);
}

TEST_F(ClientTest, LastUpdateWinsOnReconnect) {
  // Another writer updates the doc while this client is offline with its own
  // queued write; the offline client's write flushes later and wins (blind
  // write, last-update-wins, paper §III-E).
  ASSERT_TRUE(client_->Set(Path("/notes/n"), {{"v", Value::Integer(1)}}).ok());
  Pump();
  client_->SetNetworkEnabled(false);
  ASSERT_TRUE(client_->Set(Path("/notes/n"),
                           {{"v", Value::Integer(100)}}).ok());
  ASSERT_TRUE(service_
                  .Commit(kDb, {Mutation::Set(Path("/notes/n"),
                                              {{"v", Value::Integer(50)}})})
                  .ok());
  client_->SetNetworkEnabled(true);
  Pump();
  auto server = service_.Get(kDb, Path("/notes/n"));
  EXPECT_EQ((*server)->GetField(Field("v"))->integer_value(), 100);
}

// ---------------------------------------------------------------------------
// Listeners and latency compensation

TEST_F(ClientTest, ListenerSeesLocalWriteImmediately) {
  ViewRecorder rec;
  Query q(model::ResourcePath(), "notes");
  ASSERT_TRUE(client_->OnSnapshot(q, rec.Callback()).ok());
  ASSERT_EQ(rec.views.size(), 1u);  // initial empty snapshot
  ASSERT_TRUE(client_->Set(Path("/notes/fast"),
                           {{"v", Value::Integer(1)}}).ok());
  // The view updated synchronously, before the server saw anything.
  ASSERT_EQ(rec.views.size(), 2u);
  EXPECT_TRUE(rec.last().has_pending_writes);
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"fast"}));
  // After the flush + server round trip, pending clears.
  Pump();
  ASSERT_GE(rec.views.size(), 3u);
  EXPECT_FALSE(rec.last().has_pending_writes);
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"fast"}));
}

// The server's snapshot of a flushed write reaches the listener inside that
// write's commit. A callback there that writes grows the queue being
// flushed, and one that pumps re-enters the flush; every write still
// reaches the server exactly once.
TEST_F(ClientTest, ListenerMayWriteAndPumpDuringAFlush) {
  int64_t initial_ts = -1;
  bool wrote = false;
  auto callback = [&](const ViewSnapshot& v) {
    if (initial_ts < 0) initial_ts = v.snapshot_ts;
    // Only the server's snapshot of n0 moves snapshot_ts.
    if (wrote || v.snapshot_ts == initial_ts) return;
    wrote = true;
    for (int i = 1; i <= 8; ++i) {
      ASSERT_TRUE(client_
                      ->Set(Path("/notes/n" + std::to_string(i)),
                            {{"v", Value::Integer(i)}})
                      .ok());
    }
    client_->Pump();
  };
  ASSERT_TRUE(
      client_->OnSnapshot(Query(model::ResourcePath(), "notes"), callback)
          .ok());
  ASSERT_TRUE(client_->Set(Path("/notes/n0"), {{"v", Value::Integer(0)}}).ok());
  client_->Pump();
  EXPECT_TRUE(wrote);
  EXPECT_FALSE(client_->local_store().HasPending());
  EXPECT_EQ(client_->writes_flushed(), 9);
  for (int i = 0; i <= 8; ++i) {
    auto server = service_.Get(kDb, Path("/notes/n" + std::to_string(i)));
    ASSERT_TRUE(server.ok());
    EXPECT_TRUE(server->has_value()) << i;
  }
}

TEST_F(ClientTest, ListenerSeesRemoteChanges) {
  ViewRecorder rec;
  Query q(model::ResourcePath(), "notes");
  ASSERT_TRUE(client_->OnSnapshot(q, rec.Callback()).ok());
  ASSERT_TRUE(service_
                  .Commit(kDb, {Mutation::Set(Path("/notes/other"),
                                              {{"v", Value::Integer(7)}})})
                  .ok());
  Pump();
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"other"}));
  EXPECT_FALSE(rec.last().from_cache);
}

TEST_F(ClientTest, OfflineListenerKeepsFiringOnLocalWrites) {
  ViewRecorder rec;
  Query q(model::ResourcePath(), "notes");
  ASSERT_TRUE(client_->OnSnapshot(q, rec.Callback()).ok());
  client_->SetNetworkEnabled(false);
  ASSERT_TRUE(client_->Set(Path("/notes/off"), {{"v", Value::Integer(1)}})
                  .ok());
  EXPECT_TRUE(rec.last().from_cache || rec.last().has_pending_writes);
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"off"}));
  // Reconnect reconciles: listener converges to server state, not pending.
  client_->SetNetworkEnabled(true);
  Pump();
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"off"}));
  EXPECT_FALSE(rec.last().has_pending_writes);
}

TEST_F(ClientTest, FilteredListenerWithLocalOverlay) {
  ViewRecorder rec;
  Query q(model::ResourcePath(), "notes");
  q.Where(Field("starred"), Operator::kEqual, Value::Boolean(true));
  ASSERT_TRUE(client_->OnSnapshot(q, rec.Callback()).ok());
  ASSERT_TRUE(client_->Set(Path("/notes/s1"),
                           {{"starred", Value::Boolean(true)}}).ok());
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"s1"}));
  // Locally un-starring removes it from the view immediately.
  ASSERT_TRUE(client_->Set(Path("/notes/s1"),
                           {{"starred", Value::Boolean(false)}}).ok());
  EXPECT_TRUE(rec.last().documents.empty());
  Pump();
  EXPECT_TRUE(rec.last().documents.empty());
}

TEST_F(ClientTest, OfflineListenerSeesTheWarmCache) {
  for (const char* path : {"/notes/a", "/notes/b"}) {
    ASSERT_TRUE(service_
                    .Commit(kDb, {Mutation::Set(Path(path),
                                                {{"v", Value::Integer(1)}})})
                    .ok());
  }
  Query q(model::ResourcePath(), "notes");
  ASSERT_TRUE(client_->RunQuery(q).ok());  // warms the cache
  client_->SetNetworkEnabled(false);
  ViewRecorder rec;
  ASSERT_TRUE(client_->OnSnapshot(q, rec.Callback()).ok());
  ASSERT_EQ(rec.views.size(), 1u);
  EXPECT_TRUE(rec.last().from_cache);
  // The same answer an offline RunQuery gives.
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(client_->RunQuery(q)->documents.size(), 2u);
}

TEST_F(ClientTest, ListenerCursorHidesLocalWritesBeforeIt) {
  const Document cursor(Path("/notes/b"), {{"rank", Value::Integer(2)}});
  ASSERT_TRUE(service_
                  .Commit(kDb, {Mutation::Set(cursor.name(), cursor.fields()),
                                Mutation::Set(Path("/notes/d"),
                                              {{"rank", Value::Integer(4)}})})
                  .ok());
  ViewRecorder rec;
  Query q(model::ResourcePath(), "notes");
  q.OrderByField(Field("rank")).StartAfterDoc(cursor);
  ASSERT_TRUE(client_->OnSnapshot(q, rec.Callback()).ok());
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"d"}));
  // A local write before the cursor stays out of the view; one after it
  // enters at once.
  ASSERT_TRUE(client_->Set(Path("/notes/a"), {{"rank", Value::Integer(1)}})
                  .ok());
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"d"}));
  ASSERT_TRUE(client_->Set(Path("/notes/e"), {{"rank", Value::Integer(5)}})
                  .ok());
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"d", "e"}));
  // After the flush the server's snapshot agrees: it does not forward `a`.
  Pump();
  EXPECT_FALSE(rec.last().has_pending_writes);
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"d", "e"}));
}

TEST_F(ClientTest, DocumentLeavingAListenerIsNotADeletion) {
  ASSERT_TRUE(service_
                  .Commit(kDb, {Mutation::Set(Path("/notes/a"),
                                              {{"x", Value::Integer(1)}})})
                  .ok());
  ViewRecorder rec;
  Query q(model::ResourcePath(), "notes");
  q.Where(Field("x"), Operator::kEqual, Value::Integer(1));
  ASSERT_TRUE(client_->OnSnapshot(q, rec.Callback()).ok());
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"a"}));
  // Another writer changes the document so that it stops matching.
  ASSERT_TRUE(service_
                  .Commit(kDb, {Mutation::Set(Path("/notes/a"),
                                              {{"x", Value::Integer(2)}})})
                  .ok());
  Pump();
  EXPECT_TRUE(rec.last().documents.empty());
  client_->SetNetworkEnabled(false);
  // The listener only saw the document leave its result: the cache must
  // not claim it does not exist.
  auto doc = client_->Get(Path("/notes/a"));
  EXPECT_EQ(doc.status().code(), StatusCode::kUnavailable);
}

TEST_F(ClientTest, DocumentLeavingOneListenerStaysInAnother) {
  ASSERT_TRUE(service_
                  .Commit(kDb, {Mutation::Set(Path("/notes/a"),
                                              {{"x", Value::Integer(1)}})})
                  .ok());
  // The broad listener is attached first, so at a shared snapshot its
  // change reaches the client before the filtered listener's removal.
  ViewRecorder all;
  ASSERT_TRUE(
      client_->OnSnapshot(Query(model::ResourcePath(), "notes"), all.Callback())
          .ok());
  ViewRecorder filtered;
  Query q(model::ResourcePath(), "notes");
  q.Where(Field("x"), Operator::kEqual, Value::Integer(1));
  ASSERT_TRUE(client_->OnSnapshot(q, filtered.Callback()).ok());
  ASSERT_TRUE(service_
                  .Commit(kDb, {Mutation::Set(Path("/notes/a"),
                                              {{"x", Value::Integer(2)}})})
                  .ok());
  Pump();
  EXPECT_EQ(all.LastIds(), (std::vector<std::string>{"a"}));
  EXPECT_TRUE(filtered.last().documents.empty());
  client_->SetNetworkEnabled(false);
  // The removal at the broad listener's snapshot does not undo what that
  // listener saw there.
  auto doc = client_->Get(Path("/notes/a"));
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(doc->has_value());
  EXPECT_EQ((*doc)->GetField(Field("x"))->integer_value(), 2);
  ASSERT_TRUE(client_->Set(Path("/notes/z"), {{"x", Value::Integer(3)}}).ok());
  EXPECT_EQ(all.LastIds(), (std::vector<std::string>{"a", "z"}));
}

TEST_F(ClientTest, OfflineListenerKeepsItsWindowOverAStaleCache) {
  ASSERT_TRUE(service_
                  .Commit(kDb, {Mutation::Set(Path("/notes/a"),
                                              {{"x", Value::Integer(1)}})})
                  .ok());
  Query q(model::ResourcePath(), "notes");
  q.Where(Field("x"), Operator::kEqual, Value::Integer(1));
  ASSERT_TRUE(client_->RunQuery(q).ok());  // caches a{x=1}
  // The document stops matching before the listener attaches, so the
  // listener never removes it and the cache entry stays stale.
  ASSERT_TRUE(service_
                  .Commit(kDb, {Mutation::Set(Path("/notes/a"),
                                              {{"x", Value::Integer(2)}})})
                  .ok());
  ViewRecorder rec;
  ASSERT_TRUE(client_->OnSnapshot(q, rec.Callback()).ok());
  EXPECT_TRUE(rec.last().documents.empty());
  client_->SetNetworkEnabled(false);
  ASSERT_TRUE(client_->Set(Path("/notes/b"), {{"x", Value::Integer(1)}}).ok());
  EXPECT_TRUE(rec.last().from_cache);
  EXPECT_EQ(rec.LastIds(), (std::vector<std::string>{"b"}));
}

// ---------------------------------------------------------------------------
// Two clients: end-to-end collaboration

TEST_F(ClientTest, TwoClientsConverge) {
  FirestoreClient other(&service_, kDb, std::nullopt);
  ViewRecorder rec_a, rec_b;
  Query q(model::ResourcePath(), "chat");
  ASSERT_TRUE(client_->OnSnapshot(q, rec_a.Callback()).ok());
  ASSERT_TRUE(other.OnSnapshot(q, rec_b.Callback()).ok());
  ASSERT_TRUE(client_->Set(Path("/chat/m1"),
                           {{"text", Value::String("hi")}}).ok());
  client_->Pump();
  other.Pump();
  Pump();
  EXPECT_EQ(rec_a.LastIds(), (std::vector<std::string>{"m1"}));
  EXPECT_EQ(rec_b.LastIds(), (std::vector<std::string>{"m1"}));
}

// ---------------------------------------------------------------------------
// Persistence across restart

TEST_F(ClientTest, RestartWithPersistenceKeepsCacheAndQueue) {
  client_->SetNetworkEnabled(false);
  ASSERT_TRUE(client_->Set(Path("/notes/p"), {{"v", Value::Integer(1)}}).ok());
  client_->Restart();
  // The queued write and the local view survived the restart.
  EXPECT_TRUE(client_->local_store().HasPending());
  client_->SetNetworkEnabled(false);  // restart does not change connectivity
  auto doc = client_->Get(Path("/notes/p"));
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->has_value());
  // Reconnect: the persisted offline write reaches the server.
  client_->SetNetworkEnabled(true);
  Pump();
  EXPECT_TRUE(service_.Get(kDb, Path("/notes/p"))->has_value());
}

TEST_F(ClientTest, RestartWithoutPersistenceDropsCache) {
  FirestoreClient::Options options;
  options.persist_cache = false;
  FirestoreClient ephemeral(&service_, kDb, std::nullopt, options);
  ephemeral.SetNetworkEnabled(false);
  ASSERT_TRUE(ephemeral.Set(Path("/notes/e"), {{"v", Value::Integer(1)}})
                  .ok());
  ephemeral.Restart();
  EXPECT_FALSE(ephemeral.local_store().HasPending());
  EXPECT_EQ(ephemeral.local_store().cached_documents(), 0u);
}

// ---------------------------------------------------------------------------
// Security rules from the client

TEST_F(ClientTest, ThirdPartyClientRespectsRules) {
  ASSERT_TRUE(service_
                  .SetRules(kDb, R"(
                    match /notes/{id} {
                      allow read, write: if request.auth.uid == 'alice';
                    }
                  )")
                  .ok());
  rules::AuthContext alice;
  alice.authenticated = true;
  alice.uid = "alice";
  FirestoreClient alice_client(&service_, kDb, alice);
  ASSERT_TRUE(alice_client.Set(Path("/notes/mine"),
                               {{"v", Value::Integer(1)}}).ok());
  alice_client.Pump();
  EXPECT_EQ(alice_client.write_errors(), 0);
  EXPECT_TRUE(service_.Get(kDb, Path("/notes/mine"))->has_value());

  rules::AuthContext mallory;
  mallory.authenticated = true;
  mallory.uid = "mallory";
  FirestoreClient mallory_client(&service_, kDb, mallory);
  // Locally acknowledged (blind write)...
  ASSERT_TRUE(mallory_client.Set(Path("/notes/stolen"),
                                 {{"v", Value::Integer(2)}}).ok());
  mallory_client.Pump();
  // ...but rejected at flush and dropped.
  EXPECT_EQ(mallory_client.write_errors(), 1);
  EXPECT_FALSE(service_.Get(kDb, Path("/notes/stolen"))->has_value());
}

// ---------------------------------------------------------------------------
// Optimistic transactions

TEST_F(ClientTest, TransactionReadModifyWrite) {
  ASSERT_TRUE(service_
                  .Commit(kDb, {Mutation::Set(Path("/counters/c"),
                                              {{"n", Value::Integer(5)}})})
                  .ok());
  Status s = client_->RunTransaction([&](ClientTransaction& txn) -> Status {
    ASSIGN_OR_RETURN(std::optional<Document> doc,
                     txn.Get(Path("/counters/c")));
    int64_t n = (*doc).GetField(Field("n"))->integer_value();
    txn.Merge(Path("/counters/c"), {{"n", Value::Integer(n + 1)}});
    return Status::Ok();
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ((*service_.Get(kDb, Path("/counters/c")))
                ->GetField(Field("n"))
                ->integer_value(),
            6);
}

TEST_F(ClientTest, TransactionRetriesOnConflict) {
  ASSERT_TRUE(service_
                  .Commit(kDb, {Mutation::Set(Path("/counters/c"),
                                              {{"n", Value::Integer(0)}})})
                  .ok());
  int attempts = 0;
  Status s = client_->RunTransaction([&](ClientTransaction& txn) -> Status {
    ++attempts;
    ASSIGN_OR_RETURN(std::optional<Document> doc,
                     txn.Get(Path("/counters/c")));
    int64_t n = (*doc).GetField(Field("n"))->integer_value();
    if (attempts == 1) {
      // A rival write lands between our read and our commit.
      FS_CHECK(service_
                   .Commit(kDb, {Mutation::Merge(Path("/counters/c"),
                                                 {{"n", Value::Integer(
                                                            100)}})})
                   .ok());
    }
    txn.Merge(Path("/counters/c"), {{"n", Value::Integer(n + 1)}});
    return Status::Ok();
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(attempts, 2);  // first attempt failed freshness validation
  EXPECT_EQ((*service_.Get(kDb, Path("/counters/c")))
                ->GetField(Field("n"))
                ->integer_value(),
            101);
}

TEST_F(ClientTest, TransactionRequiresConnectivity) {
  client_->SetNetworkEnabled(false);
  Status s = client_->RunTransaction(
      [](ClientTransaction& txn) -> Status {
        (void)txn;
        return Status::Ok();
      });
  // The body performs no reads/writes; forcing a read makes it fail.
  Status s2 = client_->RunTransaction(
      [](ClientTransaction& txn) -> Status {
        return txn.Get(testing::Path("/x/y")).status();
      });
  EXPECT_EQ(s2.code(), StatusCode::kUnavailable);
  (void)s;
}

// ---------------------------------------------------------------------------
// Additional edge cases

TEST_F(ClientTest, RemoveListenerStopsViews) {
  ViewRecorder rec;
  Query q(model::ResourcePath(), "notes");
  auto id = client_->OnSnapshot(q, rec.Callback());
  ASSERT_TRUE(id.ok());
  size_t views_before = rec.views.size();
  client_->RemoveListener(*id);
  ASSERT_TRUE(client_->Set(Path("/notes/x"), {{"v", Value::Integer(1)}})
                  .ok());
  Pump();
  EXPECT_EQ(rec.views.size(), views_before);
  // Removing twice is harmless.
  client_->RemoveListener(*id);
}

TEST_F(ClientTest, CachedDeletionServesOfflineAsMissing) {
  ASSERT_TRUE(client_->Set(Path("/notes/gone"),
                           {{"v", Value::Integer(1)}}).ok());
  Pump();
  ASSERT_TRUE(client_->Delete(Path("/notes/gone")).ok());
  Pump();
  client_->SetNetworkEnabled(false);
  // The cache *knows* the document is deleted: no UNAVAILABLE error.
  auto doc = client_->Get(Path("/notes/gone"));
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(doc->has_value());
}

TEST_F(ClientTest, OnlineQueryWithPendingWritesOverlaysThem) {
  ASSERT_TRUE(service_
                  .Commit(kDb, {Mutation::Set(Path("/notes/server"),
                                              {{"v", Value::Integer(1)}})})
                  .ok());
  // Queue a local write but do NOT pump: the overlay must show it even on
  // an online (server-backed) query.
  ASSERT_TRUE(client_->Set(Path("/notes/local"),
                           {{"v", Value::Integer(2)}}).ok());
  Query q(model::ResourcePath(), "notes");
  auto view = client_->RunQuery(q);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(view->has_pending_writes);
  EXPECT_EQ(view->documents.size(), 2u);
}

TEST_F(ClientTest, OfflineLimitQueryAppliesLimit) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client_->Set(Path("/notes/n" + std::to_string(i)),
                             {{"v", Value::Integer(i)}})
                    .ok());
  }
  Pump();
  client_->SetNetworkEnabled(false);
  Query q(model::ResourcePath(), "notes");
  q.OrderByField(Field("v"), true).Limit(2);
  auto view = client_->RunQuery(q);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->documents.size(), 2u);
  EXPECT_EQ(view->documents[0].GetField(Field("v"))->integer_value(), 4);
}

// ---------------------------------------------------------------------------
// Local indexes (paper §IV-E: "together with the necessary local indexes")

TEST_F(ClientTest, LocalIndexNarrowsOfflineEqualityQueries) {
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(client_
                    ->Set(Path("/notes/n" + std::to_string(i)),
                          {{"tag", Value::String(i % 10 == 0 ? "rare"
                                                             : "common")}})
                    .ok());
  }
  Pump();
  client_->SetNetworkEnabled(false);
  Query q(model::ResourcePath(), "notes");
  q.Where(Field("tag"), Operator::kEqual, Value::String("rare"));
  auto view = client_->RunQuery(q);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->documents.size(), 4u);
  // The local index restricted the scan to the 4 matching documents.
  EXPECT_EQ(client_->local_store().last_query_docs_examined(), 4);
  // An unfiltered query examines the whole cache.
  auto all = client_->RunQuery(Query(model::ResourcePath(), "notes"));
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->documents.size(), 40u);
  EXPECT_EQ(client_->local_store().last_query_docs_examined(), 40);
}

TEST_F(ClientTest, LocalIndexTracksUpdatesDeletesAndPending) {
  ASSERT_TRUE(client_->Set(Path("/notes/a"),
                           {{"tag", Value::String("x")}}).ok());
  ASSERT_TRUE(client_->Set(Path("/notes/b"),
                           {{"tag", Value::String("y")}}).ok());
  Pump();
  client_->SetNetworkEnabled(false);
  Query qx(model::ResourcePath(), "notes");
  qx.Where(Field("tag"), Operator::kEqual, Value::String("x"));
  EXPECT_EQ(client_->RunQuery(qx)->documents.size(), 1u);
  // A pending (unflushed) retag must be visible despite the stale index.
  ASSERT_TRUE(client_->Set(Path("/notes/b"),
                           {{"tag", Value::String("x")}}).ok());
  EXPECT_EQ(client_->RunQuery(qx)->documents.size(), 2u);
  // And once acknowledged, the index itself is updated.
  client_->SetNetworkEnabled(true);
  Pump();
  client_->SetNetworkEnabled(false);
  EXPECT_EQ(client_->RunQuery(qx)->documents.size(), 2u);
  Query qy(model::ResourcePath(), "notes");
  qy.Where(Field("tag"), Operator::kEqual, Value::String("y"));
  EXPECT_TRUE(client_->RunQuery(qy)->documents.empty());
}

TEST_F(ClientTest, LocalIndexSurvivesPersistedRestart) {
  ASSERT_TRUE(client_->Set(Path("/notes/a"),
                           {{"tag", Value::String("x")}}).ok());
  Pump();
  client_->Restart();
  client_->SetNetworkEnabled(false);
  Query qx(model::ResourcePath(), "notes");
  qx.Where(Field("tag"), Operator::kEqual, Value::String("x"));
  auto view = client_->RunQuery(qx);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->documents.size(), 1u);
  EXPECT_EQ(client_->local_store().last_query_docs_examined(), 1);
}

}  // namespace
}  // namespace firestore::client
