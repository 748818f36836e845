#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "backend/committer.h"
#include "backend/read_service.h"
#include "common/fault_injection.h"
#include "firestore/codec/document_codec.h"
#include "tests/test_support.h"

namespace firestore::backend {
namespace {

using model::Document;
using model::Map;
using model::ResourcePath;
using model::Value;
using spanner::Timestamp;
using testing::Field;
using testing::Path;
using testing::TestTenant;

// A scripted RealTimeParticipant that records the protocol it observes.
class FakeRealTime : public RealTimeParticipant {
 public:
  StatusOr<PrepareHandle> Prepare(const std::string& database_id,
                                  const std::vector<ResourcePath>& names,
                                  Timestamp max_commit_ts) override {
    ++prepares;
    last_names = names;
    last_max_ts = max_commit_ts;
    (void)database_id;
    if (fail_prepare) return UnavailableError("injected");
    return PrepareHandle{min_ts, next_token++};
  }

  void Accept(uint64_t token, WriteOutcome outcome, Timestamp commit_ts,
              const std::vector<DocumentChange>& changes) override {
    ++accepts;
    last_token = token;
    last_outcome = outcome;
    last_commit_ts = commit_ts;
    last_changes = changes;
  }

  int prepares = 0;
  int accepts = 0;
  bool fail_prepare = false;
  uint64_t next_token = 1;
  uint64_t last_token = 0;
  Timestamp min_ts = 0;
  Timestamp last_max_ts = 0;
  Timestamp last_commit_ts = 0;
  WriteOutcome last_outcome = WriteOutcome::kFailed;
  std::vector<ResourcePath> last_names;
  std::vector<DocumentChange> last_changes;
};

// ---------------------------------------------------------------------------
// Basic write/read

TEST(CommitterTest, SetAndGetRoundTrip) {
  TestTenant t;
  Timestamp ts = t.Put("/restaurants/one", {{"name", Value::String("Zola")},
                                            {"avgRating", Value::Double(4.5)}});
  auto doc = t.reader().GetDocument(t.id(), Path("/restaurants/one"));
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(doc->has_value());
  EXPECT_EQ((*doc)->GetField(Field("name"))->string_value(), "Zola");
  EXPECT_EQ((*doc)->update_time(), ts);
  EXPECT_EQ((*doc)->create_time(), ts);
}

TEST(CommitterTest, UpdatePreservesCreateTime) {
  TestTenant t;
  Timestamp t1 = t.Put("/r/one", {{"v", Value::Integer(1)}});
  Timestamp t2 = t.Put("/r/one", {{"v", Value::Integer(2)}});
  ASSERT_GT(t2, t1);
  auto doc = t.reader().GetDocument(t.id(), Path("/r/one"));
  ASSERT_TRUE(doc.ok() && doc->has_value());
  EXPECT_EQ((*doc)->create_time(), t1);
  EXPECT_EQ((*doc)->update_time(), t2);
  EXPECT_EQ((*doc)->GetField(Field("v"))->integer_value(), 2);
}

TEST(CommitterTest, MergeKeepsOtherFields) {
  TestTenant t;
  t.Put("/r/one", {{"a", Value::Integer(1)}, {"b", Value::Integer(2)}});
  auto result = t.committer().Commit(
      t.id(), t.catalog(),
      {Mutation::Merge(Path("/r/one"), {{"b", Value::Integer(99)},
                                        {"c", Value::Integer(3)}})});
  ASSERT_TRUE(result.ok());
  auto doc = t.reader().GetDocument(t.id(), Path("/r/one"));
  ASSERT_TRUE(doc.ok() && doc->has_value());
  EXPECT_EQ((*doc)->GetField(Field("a"))->integer_value(), 1);
  EXPECT_EQ((*doc)->GetField(Field("b"))->integer_value(), 99);
  EXPECT_EQ((*doc)->GetField(Field("c"))->integer_value(), 3);
}

TEST(CommitterTest, DeleteRemovesDocumentAndIndexEntries) {
  TestTenant t;
  t.Put("/r/one", {{"a", Value::Integer(1)}});
  EXPECT_EQ(t.CountRows(index::kIndexEntriesTable), 2);
  t.Delete("/r/one");
  auto doc = t.reader().GetDocument(t.id(), Path("/r/one"));
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(doc->has_value());
  EXPECT_EQ(t.CountRows(index::kIndexEntriesTable), 0);
}

TEST(CommitterTest, PreconditionsEnforced) {
  TestTenant t;
  // Create fails if the document exists.
  ASSERT_TRUE(t.committer()
                  .Commit(t.id(), t.catalog(),
                          {Mutation::Create(Path("/r/one"),
                                            {{"a", Value::Integer(1)}})})
                  .ok());
  EXPECT_EQ(t.committer()
                .Commit(t.id(), t.catalog(),
                        {Mutation::Create(Path("/r/one"),
                                          {{"a", Value::Integer(2)}})})
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  // Must-exist update on a missing doc fails.
  Mutation must_exist = Mutation::Set(Path("/r/missing"), {});
  must_exist.precondition = Mutation::Precondition::kMustExist;
  EXPECT_EQ(t.committer()
                .Commit(t.id(), t.catalog(), {must_exist})
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(CommitterTest, MultiDocumentCommitIsAtomic) {
  TestTenant t;
  t.Put("/restaurants/one", {{"numRatings", Value::Integer(0)},
                             {"avgRating", Value::Double(0)}});
  // The paper's example: insert a rating + update the aggregate atomically.
  auto result = t.committer().Commit(
      t.id(), t.catalog(),
      {Mutation::Create(Path("/restaurants/one/ratings/2"),
                        {{"rating", Value::Integer(5)},
                         {"userId", Value::String("alice")}}),
       Mutation::Merge(Path("/restaurants/one"),
                       {{"numRatings", Value::Integer(1)},
                        {"avgRating", Value::Double(5.0)}})});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->changes.size(), 2u);
  auto parent = t.reader().GetDocument(t.id(), Path("/restaurants/one"));
  EXPECT_EQ((*parent)->GetField(Field("numRatings"))->integer_value(), 1);
  auto rating =
      t.reader().GetDocument(t.id(), Path("/restaurants/one/ratings/2"));
  EXPECT_TRUE(rating->has_value());
  // Both updated at the same commit timestamp.
  EXPECT_EQ((*parent)->update_time(), (*rating)->update_time());
}

TEST(CommitterTest, FailedPreconditionAbortsWholeCommit) {
  TestTenant t;
  t.Put("/r/exists", {{"a", Value::Integer(1)}});
  auto result = t.committer().Commit(
      t.id(), t.catalog(),
      {Mutation::Set(Path("/r/other"), {{"b", Value::Integer(2)}}),
       Mutation::Create(Path("/r/exists"), {})});
  EXPECT_FALSE(result.ok());
  auto other = t.reader().GetDocument(t.id(), Path("/r/other"));
  EXPECT_FALSE(other->has_value());  // nothing committed
}

TEST(CommitterTest, OversizedDocumentRejected) {
  TestTenant t;
  auto result = t.committer().Commit(
      t.id(), t.catalog(),
      {Mutation::Set(Path("/r/big"),
                     {{"blob", Value::String(std::string(1 << 21, 'x'))}})});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Two-phase commit with the Real-time Cache

TEST(CommitterTest, PrepareAcceptProtocol) {
  TestTenant t;
  FakeRealTime rt;
  t.committer().set_realtime(&rt);
  auto result = t.committer().Commit(
      t.id(), t.catalog(),
      {Mutation::Set(Path("/r/one"), {{"a", Value::Integer(1)}})});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(rt.prepares, 1);
  EXPECT_EQ(rt.accepts, 1);
  EXPECT_EQ(rt.last_outcome, WriteOutcome::kSuccess);
  EXPECT_EQ(rt.last_commit_ts, result->commit_ts);
  EXPECT_LE(result->commit_ts, rt.last_max_ts);
  ASSERT_EQ(rt.last_changes.size(), 1u);
  EXPECT_FALSE(rt.last_changes[0].deleted);
  ASSERT_TRUE(rt.last_changes[0].new_doc.has_value());
  EXPECT_EQ(rt.last_changes[0].new_doc->update_time(), result->commit_ts);
}

TEST(CommitterTest, CommitRespectsPreparedMinTimestamp) {
  TestTenant t;
  FakeRealTime rt;
  rt.min_ts = t.clock().NowMicros() + 500'000;
  t.committer().set_realtime(&rt);
  auto result = t.committer().Commit(
      t.id(), t.catalog(), {Mutation::Set(Path("/r/one"), {})});
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->commit_ts, rt.min_ts);
}

TEST(CommitterTest, PrepareFailureFailsWrite) {
  TestTenant t;
  FakeRealTime rt;
  rt.fail_prepare = true;
  t.committer().set_realtime(&rt);
  auto result = t.committer().Commit(
      t.id(), t.catalog(), {Mutation::Set(Path("/r/one"), {})});
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(rt.accepts, 0);
  EXPECT_FALSE(
      t.reader().GetDocument(t.id(), Path("/r/one"))->has_value());
}

TEST(CommitterTest, RtCacheUnavailableFaultFailsWrite) {
  TestTenant t;
  FakeRealTime rt;
  t.committer().set_realtime(&rt);
  FaultConfig config;
  config.action =
      FaultAction::Fail(UnavailableError("Real-time Cache Prepare failed"));
  ScopedFault fault("committer.prepare", config);
  auto result = t.committer().Commit(
      t.id(), t.catalog(), {Mutation::Set(Path("/r/one"), {})});
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

TEST(CommitterTest, SpannerFailureSendsFailedAccept) {
  TestTenant t;
  FakeRealTime rt;
  t.committer().set_realtime(&rt);
  FaultConfig config;
  config.action = FaultAction::Fail(AbortedError("Spanner commit failed"));
  ScopedFault fault("committer.commit", config);
  auto result = t.committer().Commit(
      t.id(), t.catalog(), {Mutation::Set(Path("/r/one"), {})});
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  EXPECT_EQ(rt.accepts, 1);
  EXPECT_EQ(rt.last_outcome, WriteOutcome::kFailed);
  EXPECT_FALSE(
      t.reader().GetDocument(t.id(), Path("/r/one"))->has_value());
}

TEST(CommitterTest, UnknownOutcomeCommitsButReportsUnknown) {
  TestTenant t;
  FakeRealTime rt;
  t.committer().set_realtime(&rt);
  FaultConfig config;
  config.action = FaultAction::Drop();
  ScopedFault fault("committer.outcome_unknown", config);
  auto result = t.committer().Commit(
      t.id(), t.catalog(), {Mutation::Set(Path("/r/one"), {})});
  // Paper: "the write is acknowledged to the end-user" only in the lost-
  // Accept case; with unknown outcome the user sees an error but the data
  // may have committed.
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(rt.last_outcome, WriteOutcome::kUnknown);
  EXPECT_TRUE(t.reader().GetDocument(t.id(), Path("/r/one"))->has_value());
}

// ---------------------------------------------------------------------------
// Lock-wait-timeout retries (the unified retry layer's write-path
// classification: a timed-out lock wait failed before any data was applied,
// so RunTransaction may safely retry it)

TEST(CommitterTest, LockWaitTimeoutExhaustsRetriesThenFailsCleanly) {
  TestTenant t;
  t.spanner().set_lock_timeout_ms(20);
  std::string hot_key = index::EntityKey(t.id(), Path("/r/hot"));
  // An older transaction holds the row exclusively for the whole test, so
  // every attempt (always younger; wound-wait never wounds the holder) times
  // out waiting.
  auto blocker = t.spanner().BeginTransaction();
  ASSERT_TRUE(blocker
                  ->Read(index::kEntitiesTable, hot_key,
                         spanner::LockMode::kExclusive)
                  .ok());
  int attempts = 0;
  auto result = t.committer().RunTransaction(
      t.id(), t.catalog(),
      [&attempts](spanner::ReadWriteTransaction&)
          -> StatusOr<std::vector<Mutation>> {
        ++attempts;
        return std::vector<Mutation>{Mutation::Set(Path("/r/hot"), {})};
      },
      {}, /*max_attempts=*/3);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find("lock wait timeout"),
            std::string::npos);
  EXPECT_EQ(attempts, 3);
  blocker->Abort();
  // Failed attempts released everything they held.
  EXPECT_EQ(t.spanner().lock_manager().LockCount(), 0);
  EXPECT_FALSE(t.reader().GetDocument(t.id(), Path("/r/hot"))->has_value());
}

TEST(CommitterTest, LockWaitTimeoutRetrySucceedsAfterHolderReleases) {
  TestTenant t;
  t.spanner().set_lock_timeout_ms(20);
  std::string hot_key = index::EntityKey(t.id(), Path("/r/hot"));
  auto blocker = t.spanner().BeginTransaction();
  ASSERT_TRUE(blocker
                  ->Read(index::kEntitiesTable, hot_key,
                         spanner::LockMode::kExclusive)
                  .ok());
  // Release the row partway through the retry budget: the first attempt
  // times out, a later attempt acquires the lock and commits.
  std::thread releaser([&blocker] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    blocker->Abort();
  });
  auto result = t.committer().RunTransaction(
      t.id(), t.catalog(),
      [](spanner::ReadWriteTransaction&) -> StatusOr<std::vector<Mutation>> {
        return std::vector<Mutation>{Mutation::Set(Path("/r/hot"), {})};
      },
      {}, /*max_attempts=*/10);
  releaser.join();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(t.spanner().lock_manager().LockCount(), 0);
  EXPECT_TRUE(t.reader().GetDocument(t.id(), Path("/r/hot"))->has_value());
}

// ---------------------------------------------------------------------------
// Security rules in the write path

TEST(CommitterTest, RulesAllowAndDenyWrites) {
  TestTenant t;
  auto rules = rules::RuleSet::Parse(R"(
    match /restaurants/{rid}/ratings/{rat} {
      allow create: if request.auth.uid == request.resource.data.userId;
    }
  )");
  ASSERT_TRUE(rules.ok());
  rules::AuthContext alice;
  alice.authenticated = true;
  alice.uid = "alice";
  auto ok = t.committer().Commit(
      t.id(), t.catalog(),
      {Mutation::Create(Path("/restaurants/one/ratings/1"),
                        {{"userId", Value::String("alice")}})},
      {}, &rules.value(), &alice);
  EXPECT_TRUE(ok.ok());
  auto denied = t.committer().Commit(
      t.id(), t.catalog(),
      {Mutation::Create(Path("/restaurants/one/ratings/2"),
                        {{"userId", Value::String("bob")}})},
      {}, &rules.value(), &alice);
  EXPECT_EQ(denied.status().code(), StatusCode::kPermissionDenied);
}

TEST(CommitterTest, RulesGetLookupIsTransactional) {
  TestTenant t;
  t.Put("/acl/room1", {{"owner", Value::String("alice")}});
  auto rules = rules::RuleSet::Parse(R"(
    match /rooms/{roomId} {
      allow write: if get(/acl/$(roomId)).data.owner == request.auth.uid;
    }
  )");
  ASSERT_TRUE(rules.ok());
  rules::AuthContext alice;
  alice.authenticated = true;
  alice.uid = "alice";
  EXPECT_TRUE(t.committer()
                  .Commit(t.id(), t.catalog(),
                          {Mutation::Set(Path("/rooms/room1"),
                                         {{"x", Value::Integer(1)}})},
                          {}, &rules.value(), &alice)
                  .ok());
  rules::AuthContext bob;
  bob.authenticated = true;
  bob.uid = "bob";
  EXPECT_FALSE(t.committer()
                   .Commit(t.id(), t.catalog(),
                           {Mutation::Set(Path("/rooms/room1"),
                                          {{"x", Value::Integer(2)}})},
                           {}, &rules.value(), &bob)
                   .ok());
}

// ---------------------------------------------------------------------------
// Triggers

TEST(CommitterTest, TriggersEnqueueOnMatchingWrites) {
  TestTenant t;
  TriggerDefinition trigger;
  trigger.function_name = "onRatingWritten";
  trigger.pattern = {"restaurants", "{rid}", "ratings", "{rat}"};
  auto result = t.committer().Commit(
      t.id(), t.catalog(),
      {Mutation::Set(Path("/restaurants/one/ratings/1"),
                     {{"rating", Value::Integer(5)}})},
      {trigger});
  ASSERT_TRUE(result.ok());
  auto msg = t.spanner().queue().Pop(kTriggerTopic);
  ASSERT_TRUE(msg.has_value());
  auto event = TriggerEvent::Parse(msg->payload);
  ASSERT_TRUE(event.ok());
  EXPECT_EQ(event->function_name, "onRatingWritten");
  EXPECT_EQ(event->change.name.CanonicalString(),
            "/restaurants/one/ratings/1");
  ASSERT_TRUE(event->change.new_doc.has_value());
  EXPECT_EQ(event->change.new_doc->GetField(Field("rating"))->integer_value(),
            5);
  // Non-matching write does not enqueue.
  ASSERT_TRUE(t.committer()
                  .Commit(t.id(), t.catalog(),
                          {Mutation::Set(Path("/other/x"), {})}, {trigger})
                  .ok());
  EXPECT_FALSE(t.spanner().queue().Pop(kTriggerTopic).has_value());
}

TEST(CommitterTest, FailedCommitDropsTriggerMessages) {
  TestTenant t;
  t.Put("/r/exists", {});
  TriggerDefinition trigger;
  trigger.function_name = "fn";
  trigger.pattern = {"r", "{id}"};
  auto result = t.committer().Commit(
      t.id(), t.catalog(), {Mutation::Create(Path("/r/exists"), {})},
      {trigger});
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(t.spanner().queue().Pop(kTriggerTopic).has_value());
}

// ---------------------------------------------------------------------------
// Transactions (server SDK style)

TEST(CommitterTest, RunTransactionReadModifyWrite) {
  TestTenant t;
  t.Put("/counters/c", {{"n", Value::Integer(10)}});
  auto result = t.committer().RunTransaction(
      t.id(), t.catalog(),
      [&](spanner::ReadWriteTransaction& txn)
          -> StatusOr<std::vector<Mutation>> {
        spanner::Timestamp version = 0;
        ASSIGN_OR_RETURN(
            spanner::RowValue row,
            txn.Read(index::kEntitiesTable,
                     index::EntityKey(t.id(), Path("/counters/c")),
                     spanner::LockMode::kExclusive, &version));
        FS_CHECK(row.has_value());
        ASSIGN_OR_RETURN(Document doc, codec::ParseDocument(*row));
        int64_t n = doc.GetField(Field("n"))->integer_value();
        return std::vector<Mutation>{Mutation::Merge(
            Path("/counters/c"), {{"n", Value::Integer(n + 1)}})};
      });
  ASSERT_TRUE(result.ok());
  auto doc = t.reader().GetDocument(t.id(), Path("/counters/c"));
  EXPECT_EQ((*doc)->GetField(Field("n"))->integer_value(), 11);
}

// ---------------------------------------------------------------------------
// Billing

TEST(BillingTest, CountersAndFreeQuota) {
  TestTenant t;
  BillingLedger billing;
  t.committer().set_billing(&billing);
  t.reader().set_billing(&billing);
  t.Put("/r/one", {{"a", Value::Integer(1)}});
  t.Put("/r/two", {{"a", Value::Integer(2)}});
  t.Delete("/r/two");
  (void)t.reader().GetDocument(t.id(), Path("/r/one"));
  UsageCounters usage = billing.Usage(t.id());
  EXPECT_EQ(usage.document_writes, 2);
  EXPECT_EQ(usage.document_deletes, 1);
  EXPECT_EQ(usage.document_reads, 1);
  EXPECT_GT(usage.storage_bytes, 0);
  // Everything is inside the free quota.
  EXPECT_EQ(billing.BillableMicrosToday(t.id()), 0.0);
}

TEST(BillingTest, OverQuotaBills) {
  FreeQuota quota;
  quota.reads_per_day = 10;
  BillingLedger billing(quota);
  billing.RecordReads("db", 100'010);
  EXPECT_NEAR(billing.BillableMicrosToday("db"), 0.06e6, 1e3);
  billing.ResetDay();
  EXPECT_EQ(billing.BillableMicrosToday("db"), 0.0);
}

TEST(BillingTest, StorageOverQuotaBillsProRated) {
  FreeQuota quota;
  quota.storage_bytes = 1000;
  BillingLedger billing(quota);
  billing.AdjustStorage("db", 1000 + (1ll << 30));  // 1 GiB over quota
  double micros = billing.BillableMicrosToday("db");
  // $0.18/GiB-month => ~$0.006/day => 6000 micro-dollars.
  EXPECT_NEAR(micros, 0.18e6 / 30.0, 100);
  // Deleting data stops the charge.
  billing.AdjustStorage("db", -(1ll << 30));
  EXPECT_EQ(billing.BillableMicrosToday("db"), 0.0);
}

TEST(BillingTest, IdleDatabaseCostsNothing) {
  BillingLedger billing;
  EXPECT_EQ(billing.BillableMicrosToday("never-used"), 0.0);
  EXPECT_EQ(billing.Usage("never-used").document_reads, 0);
}

}  // namespace
}  // namespace firestore::backend
