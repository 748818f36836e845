// Tests of the Datastore API sibling (paper §II): entities over the same
// database as Firestore documents, plus the planner A/B harness (§VI).

#include <gtest/gtest.h>

#include "common/random.h"
#include "firestore/query/ab_compare.h"
#include "firestore/query/row_reader.h"
#include "service/datastore_api.h"
#include "tests/test_support.h"

namespace firestore::datastore {
namespace {

using backend::Mutation;
using model::Map;
using model::Value;
using query::Operator;
using query::Query;
using testing::Field;
using testing::Path;

constexpr char kDb[] = "projects/p/databases/d";

class DatastoreTest : public ::testing::Test {
 protected:
  DatastoreTest()
      : clock_(1'000'000'000), service_(&clock_), client_(&service_, kDb) {
    FS_CHECK_OK(service_.CreateDatabase(kDb));
  }

  ManualClock clock_;
  service::FirestoreService service_;
  DatastoreClient client_;
};

TEST_F(DatastoreTest, KeysMapToDocumentPaths) {
  Key key = Key::Of("Task", "t1");
  EXPECT_EQ(key.ToResourcePath().CanonicalString(), "/Task/t1");
  Key child = key.Child("Subtask", "s1");
  EXPECT_EQ(child.ToResourcePath().CanonicalString(), "/Task/t1/Subtask/s1");
  auto back = Key::FromResourcePath(Path("/Task/t1/Subtask/s1"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->path.size(), 2u);
  EXPECT_EQ(back->path[1].first, "Subtask");
  EXPECT_FALSE(Key::FromResourcePath(Path("/Task")).ok());
}

TEST_F(DatastoreTest, PutLookupDelete) {
  Entity task;
  task.key = Key::Of("Task", "t1");
  task.properties["done"] = Value::Boolean(false);
  ASSERT_TRUE(client_.Put(task).ok());
  auto found = client_.Lookup(task.key);
  ASSERT_TRUE(found.ok());
  ASSERT_TRUE(found->has_value());
  EXPECT_EQ((*found)->properties.at("done").boolean_value(), false);
  ASSERT_TRUE(client_.Delete(task.key).ok());
  EXPECT_FALSE(client_.Lookup(task.key)->has_value());
}

TEST_F(DatastoreTest, BothApisShareOneDatabase) {
  // Write through Datastore, read through Firestore — and vice versa
  // (paper §II: "both APIs can be used to read from and write to the same
  // database").
  Entity task;
  task.key = Key::Of("Task", "shared");
  task.properties["owner"] = Value::String("ada");
  ASSERT_TRUE(client_.Put(task).ok());
  auto as_doc = service_.Get(kDb, Path("/Task/shared"));
  ASSERT_TRUE(as_doc.ok() && as_doc->has_value());
  EXPECT_EQ((*as_doc)->GetField(Field("owner"))->string_value(), "ada");

  ASSERT_TRUE(service_
                  .Commit(kDb, {Mutation::Merge(
                                   Path("/Task/shared"),
                                   {{"done", Value::Boolean(true)}})})
                  .ok());
  auto as_entity = client_.Lookup(Key::Of("Task", "shared"));
  ASSERT_TRUE(as_entity.ok() && as_entity->has_value());
  EXPECT_TRUE((*as_entity)->properties.at("done").boolean_value());
  EXPECT_EQ((*as_entity)->properties.at("owner").string_value(), "ada");
}

TEST_F(DatastoreTest, KindQueriesUseTheSameEngine) {
  for (int i = 0; i < 6; ++i) {
    Entity e;
    e.key = Key::Of("Task", "t" + std::to_string(i));
    e.properties["priority"] = Value::Integer(i % 3);
    ASSERT_TRUE(client_.Put(e).ok());
  }
  Query q(model::ResourcePath(), "Task");
  q.Where(Field("priority"), Operator::kEqual, Value::Integer(2));
  auto results = client_.RunQuery(q);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 2u);
}

TEST_F(DatastoreTest, AncestorQueries) {
  Key parent = Key::Of("Project", "apollo");
  Entity p;
  p.key = parent;
  ASSERT_TRUE(client_.Put(p).ok());
  for (int i = 0; i < 3; ++i) {
    Entity e;
    e.key = parent.Child("Task", "t" + std::to_string(i));
    e.properties["n"] = Value::Integer(i);
    ASSERT_TRUE(client_.Put(e).ok());
  }
  // A Task under a different project must not leak in.
  Entity other;
  other.key = Key::Of("Project", "gemini").Child("Task", "tx");
  ASSERT_TRUE(client_.Put(other).ok());
  auto tasks = client_.AncestorQuery(parent, "Task");
  ASSERT_TRUE(tasks.ok());
  EXPECT_EQ(tasks->size(), 3u);
}

TEST_F(DatastoreTest, EventualReadsServeRecentSnapshot) {
  Entity e;
  e.key = Key::Of("Task", "t");
  e.properties["v"] = Value::Integer(1);
  ASSERT_TRUE(client_.Put(e).ok());
  auto eventual = client_.Lookup(e.key, ReadConsistency::kEventual);
  ASSERT_TRUE(eventual.ok());
  ASSERT_TRUE(eventual->has_value());
  EXPECT_EQ((*eventual)->properties.at("v").integer_value(), 1);
}

TEST_F(DatastoreTest, TransactionsWork) {
  Entity e;
  e.key = Key::Of("Counter", "c");
  e.properties["n"] = Value::Integer(5);
  ASSERT_TRUE(client_.Put(e).ok());
  auto result = client_.RunTransaction(
      [&](spanner::ReadWriteTransaction& txn)
          -> StatusOr<std::vector<Mutation>> {
        (void)txn;
        return std::vector<Mutation>{Mutation::Merge(
            Path("/Counter/c"), {{"n", Value::Integer(6)}})};
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*client_.Lookup(e.key))->properties.at("n").integer_value(), 6);
}

// ---------------------------------------------------------------------------
// Planner A/B harness (§VI)

class ABCompareTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ABCompareTest, PlannerAgreesWithReferenceOnRandomQueries) {
  ManualClock clock(1'000'000'000);
  service::FirestoreService service(&clock);
  FS_CHECK_OK(service.CreateDatabase(kDb));
  Rng rng(GetParam());
  const std::vector<std::string> kinds = {"a", "b"};
  for (int i = 0; i < 50; ++i) {
    Map fields;
    fields["x"] = Value::Integer(rng.Uniform(0, 9));
    if (rng.Bernoulli(0.7)) fields["y"] = Value::Integer(rng.Uniform(0, 9));
    if (rng.Bernoulli(0.3)) fields["tag"] = Value::String("hot");
    std::string path = "/" + kinds[rng.Uniform(0, 1)] + "/d" +
                       std::to_string(i);
    FS_CHECK(service
                 .Commit(kDb, {Mutation::Set(Path(path), std::move(fields))})
                 .ok());
  }
  query::SnapshotRowReader reader(&service.spanner(),
                                  service.spanner().StrongReadTimestamp());
  int compared = 0;
  for (int iter = 0; iter < 30; ++iter) {
    Query q(model::ResourcePath(), kinds[rng.Uniform(0, 1)]);
    if (rng.Bernoulli(0.5)) {
      q.Where(Field("x"), Operator::kEqual,
              Value::Integer(rng.Uniform(0, 9)));
    }
    if (rng.Bernoulli(0.4)) {
      q.Where(Field("y"),
              rng.Bernoulli(0.5) ? Operator::kGreaterThan
                                 : Operator::kLessThanOrEqual,
              Value::Integer(rng.Uniform(0, 9)));
    }
    if (rng.Bernoulli(0.3)) q.Limit(rng.Uniform(1, 10));
    if (rng.Bernoulli(0.2)) q.Offset(rng.Uniform(0, 5));
    if (rng.Bernoulli(0.2)) q.Project({Field("x")});
    auto report = query::ABCompareQuery(*service.catalog(kDb)->Snapshot(),
                                        reader, kDb, q);
    if (!report.ok()) {
      // Only a missing composite index is acceptable.
      ASSERT_EQ(report.status().code(), StatusCode::kFailedPrecondition)
          << q.CanonicalString();
      continue;
    }
    ++compared;
    EXPECT_TRUE(report->match)
        << q.CanonicalString() << " plan=" << report->plan_description
        << "\n  " << (report->divergences.empty()
                          ? ""
                          : report->divergences[0]);
  }
  EXPECT_GT(compared, 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ABCompareTest,
                         ::testing::Values(3, 6, 9, 12));

}  // namespace
}  // namespace firestore::datastore
