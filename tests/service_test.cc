// Tests of the service facade and the operational machinery from paper §VI:
// admission control, isolation tooling, data-validation jobs, checksums,
// plus the §VIII extensions (COUNT queries) and §IV-C resumable queries.

#include <gtest/gtest.h>

#include "backend/admission.h"
#include "backend/validation.h"
#include "client/local_store.h"
#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "firestore/codec/value_codec.h"
#include "service/global_router.h"
#include "service/service.h"
#include "tests/test_support.h"

namespace firestore::service {
namespace {

using backend::Mutation;
using model::Map;
using model::Value;
using query::Operator;
using query::Query;
using testing::Field;
using testing::Path;

constexpr char kDb[] = "projects/p/databases/d";

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : clock_(1'000'000'000), service_(&clock_) {
    FS_CHECK_OK(service_.CreateDatabase(kDb));
  }

  void Put(const std::string& path, Map fields) {
    FS_CHECK(
        service_.Commit(kDb, {Mutation::Set(Path(path), std::move(fields))})
            .ok());
  }

  ManualClock clock_;
  FirestoreService service_;
};

// ---------------------------------------------------------------------------
// Multi-tenant admin plane

TEST_F(ServiceTest, DatabaseLifecycle) {
  EXPECT_TRUE(service_.DatabaseExists(kDb));
  EXPECT_EQ(service_.CreateDatabase(kDb).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(service_.CreateDatabase("").ok());
  ASSERT_TRUE(service_.CreateDatabase("projects/x/databases/y").ok());
  EXPECT_EQ(service_.ListDatabases().size(), 2u);
  ASSERT_TRUE(service_.DeleteDatabase("projects/x/databases/y").ok());
  EXPECT_FALSE(service_.DatabaseExists("projects/x/databases/y"));
  EXPECT_EQ(service_.DeleteDatabase("projects/x/databases/y").code(),
            StatusCode::kNotFound);
}

TEST_F(ServiceTest, DeleteDatabaseRemovesAllRows) {
  Put("/c/a", {{"v", Value::Integer(1)}});
  Put("/c/b", {{"v", Value::Integer(2)}});
  ASSERT_TRUE(service_.DeleteDatabase(kDb).ok());
  // Both tables are physically empty for the tenant's prefix.
  auto rows = service_.spanner().SnapshotScan(
      index::kEntitiesTable, "", "",
      service_.spanner().StrongReadTimestamp());
  EXPECT_TRUE(rows->empty());
  auto entries = service_.spanner().SnapshotScan(
      index::kIndexEntriesTable, "", "",
      service_.spanner().StrongReadTimestamp());
  EXPECT_TRUE(entries->empty());
  // The data plane now rejects the database.
  EXPECT_EQ(service_.Get(kDb, Path("/c/a")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ServiceTest, TenantsShareTablesButNotData) {
  constexpr char kOther[] = "projects/q/databases/d";
  ASSERT_TRUE(service_.CreateDatabase(kOther).ok());
  Put("/c/doc", {{"v", Value::Integer(1)}});
  FS_CHECK(service_
               .Commit(kOther, {Mutation::Set(Path("/c/doc"),
                                              {{"v", Value::Integer(2)}})})
               .ok());
  auto mine = service_.Get(kDb, Path("/c/doc"));
  auto theirs = service_.Get(kOther, Path("/c/doc"));
  EXPECT_EQ((*mine)->GetField(Field("v"))->integer_value(), 1);
  EXPECT_EQ((*theirs)->GetField(Field("v"))->integer_value(), 2);
  // Queries are tenant-scoped too.
  auto q = service_.RunQuery(kOther, Query(model::ResourcePath(), "c"));
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->result.documents.size(), 1u);
  EXPECT_EQ(q->result.documents[0].GetField(Field("v"))->integer_value(), 2);
}

// ---------------------------------------------------------------------------
// Global routing (§IV-A)

TEST(GlobalRouterTest, RoutesToOwningRegion) {
  ManualClock clock(1'000'000'000);
  FirestoreService nam5(&clock);
  FirestoreService eur3(&clock);
  GlobalRouter router;
  ASSERT_TRUE(router.AddRegion("nam5", &nam5).ok());
  ASSERT_TRUE(router.AddRegion("eur3", &eur3).ok());
  EXPECT_EQ(router.AddRegion("nam5", &nam5).code(),
            StatusCode::kAlreadyExists);

  // Location is chosen at creation time and is sticky.
  ASSERT_TRUE(router.CreateDatabase("db-us", "nam5").ok());
  ASSERT_TRUE(router.CreateDatabase("db-eu", "eur3").ok());
  EXPECT_EQ(*router.RegionOf("db-us"), "nam5");
  EXPECT_EQ(*router.RegionOf("db-eu"), "eur3");
  EXPECT_EQ(router.CreateDatabase("db-us", "eur3").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(router.CreateDatabase("db-x", "mars").code(),
            StatusCode::kInvalidArgument);

  // Writes land only in the owning region's Spanner instance.
  ASSERT_TRUE(router
                  .Commit("db-eu", {Mutation::Set(Path("/c/d"),
                                                  {{"v",
                                                    Value::Integer(1)}})})
                  .ok());
  EXPECT_TRUE(eur3.Get("db-eu", Path("/c/d"))->has_value());
  EXPECT_EQ(nam5.Get("db-eu", Path("/c/d")).status().code(),
            StatusCode::kNotFound);

  // Reads and queries route the same way.
  auto doc = router.Get("db-eu", Path("/c/d"));
  ASSERT_TRUE(doc.ok() && doc->has_value());
  auto q = router.RunQuery("db-eu", Query(model::ResourcePath(), "c"));
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->result.documents.size(), 1u);
  EXPECT_GE(router.routed("eur3"), 3);
  EXPECT_EQ(router.routed("nam5"), 0);

  // Unknown databases are NOT_FOUND at the router.
  EXPECT_EQ(router.Get("nope", Path("/c/d")).status().code(),
            StatusCode::kNotFound);

  // Deleting unregisters the route.
  ASSERT_TRUE(router.DeleteDatabase("db-eu").ok());
  EXPECT_EQ(router.RegionOf("db-eu").status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// COUNT queries (§VIII)

TEST_F(ServiceTest, CountQueryBasic) {
  for (int i = 0; i < 25; ++i) {
    Put("/r/doc" + std::to_string(i),
        {{"city", Value::String(i % 5 == 0 ? "SF" : "LA")}});
  }
  Query all(model::ResourcePath(), "r");
  auto count_all = service_.RunCountQuery(kDb, all);
  ASSERT_TRUE(count_all.ok());
  EXPECT_EQ(count_all->count, 25);
  Query sf = all;
  sf.Where(Field("city"), Operator::kEqual, Value::String("SF"));
  auto count_sf = service_.RunCountQuery(kDb, sf);
  ASSERT_TRUE(count_sf.ok());
  EXPECT_EQ(count_sf->count, 5);
  // Counting never touches the Entities payloads.
  EXPECT_EQ(count_sf->stats.entities_fetched, 0);
}

TEST_F(ServiceTest, CountQueryWithInequalityAndLimit) {
  for (int i = 0; i < 20; ++i) {
    Put("/r/doc" + std::to_string(i), {{"n", Value::Integer(i)}});
  }
  Query q(model::ResourcePath(), "r");
  q.Where(Field("n"), Operator::kGreaterThanOrEqual, Value::Integer(10));
  auto counted = service_.RunCountQuery(kDb, q);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->count, 10);
  Query capped = q;
  capped.Limit(4);
  EXPECT_EQ(service_.RunCountQuery(kDb, capped)->count, 4);
  Query offset = q;
  offset.Offset(7);
  EXPECT_EQ(service_.RunCountQuery(kDb, offset)->count, 3);
}

TEST_F(ServiceTest, CountQueryStopsAtItsLimit) {
  for (int i = 0; i < 1000; ++i) {
    Put("/r/doc" + std::to_string(i), {{"city", Value::String("SF")}});
  }
  Query q(model::ResourcePath(), "r");
  q.Where(Field("city"), Operator::kEqual, Value::String("SF")).Limit(20);
  auto counted = service_.RunCountQuery(kDb, q);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->count, 20);
  // The walk ends at the 20th entry of the 1000-entry posting list.
  EXPECT_LE(counted->stats.index_rows_scanned, 21);
}

TEST_F(ServiceTest, CountQueryZigZagAndContradiction) {
  for (int i = 0; i < 30; ++i) {
    Put("/r/doc" + std::to_string(i),
        {{"a", Value::String(i % 2 == 0 ? "x" : "y")},
         {"b", Value::String(i % 3 == 0 ? "p" : "q")}});
  }
  Query q(model::ResourcePath(), "r");
  q.Where(Field("a"), Operator::kEqual, Value::String("x"))
      .Where(Field("b"), Operator::kEqual, Value::String("p"));
  auto joined = service_.RunCountQuery(kDb, q);
  ASSERT_TRUE(joined.ok());
  // i % 2 == 0 && i % 3 == 0 -> i % 6 == 0 -> 5 docs in [0, 30).
  EXPECT_EQ(joined->count, 5);
  // Contradictory equalities are provably empty without scanning.
  Query never(model::ResourcePath(), "r");
  never.Where(Field("a"), Operator::kEqual, Value::String("x"))
      .Where(Field("a"), Operator::kEqual, Value::String("y"));
  auto zero = service_.RunCountQuery(kDb, never);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->count, 0);
  EXPECT_EQ(zero->stats.index_rows_scanned, 0);
}

TEST_F(ServiceTest, CountMatchesQueryAcrossRandomCases) {
  Rng rng(77);
  for (int i = 0; i < 60; ++i) {
    Map fields;
    fields["g"] = Value::Integer(rng.Uniform(0, 3));
    if (rng.Bernoulli(0.8)) fields["n"] = Value::Integer(rng.Uniform(0, 50));
    Put("/r/doc" + std::to_string(i), std::move(fields));
  }
  for (int g = 0; g <= 3; ++g) {
    Query q(model::ResourcePath(), "r");
    q.Where(Field("g"), Operator::kEqual, Value::Integer(g))
        .Where(Field("n"), Operator::kLessThan, Value::Integer(25));
    // (g, n) needs a composite index.
    auto id = service_.CreateCompositeIndex(
        kDb, "r",
        {{Field("g"), index::SegmentKind::kAscending},
         {Field("n"), index::SegmentKind::kAscending}});
    if (g == 0) {
      ASSERT_TRUE(id.ok());
    }
    auto run = service_.RunQuery(kDb, q);
    auto counted = service_.RunCountQuery(kDb, q);
    ASSERT_TRUE(run.ok() && counted.ok());
    EXPECT_EQ(counted->count,
              static_cast<int64_t>(run->result.documents.size()))
        << q.CanonicalString();
  }
}

// ---------------------------------------------------------------------------
// SUM / AVG aggregations (§VIII)

TEST_F(ServiceTest, SumAndAvgFromIndexKeys) {
  int64_t expected = 0;
  for (int i = 0; i < 30; ++i) {
    Put("/orders/o" + std::to_string(i), {{"amount", Value::Integer(i)}});
    expected += i;
  }
  Query q(model::ResourcePath(), "orders");
  auto sum = service_.RunSumQuery(kDb, q, Field("amount"));
  ASSERT_TRUE(sum.ok());
  EXPECT_TRUE(sum->aggregate.is_integer);
  EXPECT_EQ(sum->aggregate.sum_integer, expected);
  EXPECT_EQ(sum->aggregate.count, 30);
  // The fast path decoded values from index keys: no document fetches.
  EXPECT_EQ(sum->aggregate.stats.entities_fetched, 0);
  EXPECT_NEAR(sum->aggregate.Avg(), expected / 30.0, 1e-9);
}

TEST_F(ServiceTest, SumIgnoresNonNumericAndMissing) {
  Put("/orders/num", {{"amount", Value::Integer(10)}});
  Put("/orders/dbl", {{"amount", Value::Double(2.5)}});
  Put("/orders/str", {{"amount", Value::String("n/a")}});
  Put("/orders/none", {{"other", Value::Integer(99)}});
  Query q(model::ResourcePath(), "orders");
  auto sum = service_.RunSumQuery(kDb, q, Field("amount"));
  ASSERT_TRUE(sum.ok());
  EXPECT_FALSE(sum->aggregate.is_integer);  // a double participated
  EXPECT_NEAR(sum->aggregate.Sum(), 12.5, 1e-9);
  EXPECT_EQ(sum->aggregate.count, 2);
}

TEST_F(ServiceTest, SumWithEqualityFilterUsesFetchPath) {
  for (int i = 0; i < 12; ++i) {
    Put("/orders/o" + std::to_string(i),
        {{"region", Value::String(i % 2 == 0 ? "eu" : "us")},
         {"amount", Value::Integer(i)}});
  }
  Query q(model::ResourcePath(), "orders");
  q.Where(Field("region"), Operator::kEqual, Value::String("eu"));
  auto sum = service_.RunSumQuery(kDb, q, Field("amount"));
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->aggregate.sum_integer, 0 + 2 + 4 + 6 + 8 + 10);
  EXPECT_EQ(sum->aggregate.count, 6);
  // Cross-check against a brute-force query.
  auto run = service_.RunQuery(kDb, q);
  int64_t brute = 0;
  for (const auto& doc : run->result.documents) {
    brute += doc.GetField(Field("amount"))->integer_value();
  }
  EXPECT_EQ(sum->aggregate.sum_integer, brute);
}

TEST_F(ServiceTest, SumHonorsInequalityBounds) {
  for (int i = 0; i < 10; ++i) {
    Put("/orders/o" + std::to_string(i), {{"amount", Value::Integer(i)}});
  }
  Query q(model::ResourcePath(), "orders");
  q.Where(Field("amount"), Operator::kGreaterThanOrEqual, Value::Integer(5));
  auto sum = service_.RunSumQuery(kDb, q, Field("amount"));
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->aggregate.sum_integer, 5 + 6 + 7 + 8 + 9);
  EXPECT_EQ(sum->aggregate.stats.entities_fetched, 0);  // key-decoded
}

// ---------------------------------------------------------------------------
// Cursors and resumable queries (§IV-C)

TEST_F(ServiceTest, CursorPagination) {
  for (int i = 0; i < 10; ++i) {
    Put("/r/doc" + std::to_string(i), {{"n", Value::Integer(i)}});
  }
  Query page1(model::ResourcePath(), "r");
  page1.OrderByField(Field("n"), /*descending=*/true).Limit(4);
  auto r1 = service_.RunQuery(kDb, page1);
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(r1->result.documents.size(), 4u);
  EXPECT_EQ(r1->result.documents[0].GetField(Field("n"))->integer_value(),
            9);

  Query page2 = page1;
  page2.StartAfterDoc(r1->result.documents.back());
  auto r2 = service_.RunQuery(kDb, page2);
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->result.documents.size(), 4u);
  EXPECT_EQ(r2->result.documents[0].GetField(Field("n"))->integer_value(),
            5);
  // StartAt includes the cursor document.
  Query page2_at = page1;
  page2_at.StartAtDoc(r1->result.documents.back());
  auto r2_at = service_.RunQuery(kDb, page2_at);
  ASSERT_TRUE(r2_at.ok());
  EXPECT_EQ(r2_at->result.documents[0].name().CanonicalString(),
            r1->result.documents.back().name().CanonicalString());
}

TEST_F(ServiceTest, CursorPaginationCoversWholeResultExactlyOnce) {
  for (int i = 0; i < 23; ++i) {
    Put("/r/doc" + std::to_string(i), {{"n", Value::Integer(i % 7)}});
  }
  Query base(model::ResourcePath(), "r");
  base.OrderByField(Field("n")).Limit(5);
  std::vector<std::string> seen;
  Query page = base;
  while (true) {
    auto r = service_.RunQuery(kDb, page);
    ASSERT_TRUE(r.ok());
    if (r->result.documents.empty()) break;
    for (const auto& doc : r->result.documents) {
      seen.push_back(doc.name().CanonicalString());
    }
    page = base;
    page.StartAfterDoc(r->result.documents.back());
  }
  EXPECT_EQ(seen.size(), 23u);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST_F(ServiceTest, CollectionScanCursor) {
  for (char c = 'a'; c <= 'e'; ++c) Put(std::string("/r/") + c, {});
  Query base(model::ResourcePath(), "r");
  Query page = base;
  page.Limit(2);
  auto r1 = service_.RunQuery(kDb, page);
  ASSERT_TRUE(r1.ok());
  Query next = base;
  next.Limit(2).StartAfterDoc(r1->result.documents.back());
  auto r2 = service_.RunQuery(kDb, next);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->result.documents[0].name().last_segment(), "c");
}

TEST_F(ServiceTest, InvalidCursorRejected) {
  Put("/r/a", {{"n", Value::Integer(1)}});
  Query q(model::ResourcePath(), "r");
  // Cursor captured before the order-by was added: mismatched arity.
  model::Document doc(Path("/r/a"), {{"n", Value::Integer(1)}});
  q.StartAfterDoc(doc);
  q.OrderByField(Field("n"));
  EXPECT_EQ(service_.RunQuery(kDb, q).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Partial results under the per-RPC work cap (§IV-C)

TEST_F(ServiceTest, ScanCapReturnsPartialResultsAndResumes) {
  for (int i = 0; i < 50; ++i) {
    Put("/r/doc" + std::to_string(i), {{"n", Value::Integer(i)}});
  }
  // Access the ReadService through a fresh instance so we can set the cap.
  backend::ReadService reader(&service_.spanner());
  reader.set_max_rows_per_rpc(10);
  Query q(model::ResourcePath(), "r");
  q.OrderByField(Field("n"));
  auto partial = reader.RunQuery(kDb, *service_.catalog(kDb), q);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(partial->result.reached_scan_limit);
  EXPECT_EQ(partial->result.documents.size(), 10u);
  // Resume from the last document; collect everything.
  size_t total = partial->result.documents.size();
  Query resume = q;
  while (partial->result.reached_scan_limit) {
    resume = q;
    resume.StartAfterDoc(partial->result.documents.back());
    partial = reader.RunQuery(kDb, *service_.catalog(kDb), resume);
    ASSERT_TRUE(partial.ok());
    total += partial->result.documents.size();
  }
  EXPECT_EQ(total, 50u);
}

// ---------------------------------------------------------------------------
// MVCC version retention

TEST_F(ServiceTest, PumpGarbageCollectsOldVersionsButKeepsRetained) {
  Put("/r/doc", {{"v", Value::Integer(1)}});
  auto t1 = service_.spanner().last_commit_ts();
  Put("/r/doc", {{"v", Value::Integer(2)}});
  Put("/r/doc", {{"v", Value::Integer(3)}});
  auto t3 = service_.spanner().last_commit_ts();
  // Move time past the retention window of the first versions.
  clock_.AdvanceBy(2 * 3'600'000'000ll);
  Put("/r/doc", {{"v", Value::Integer(4)}});
  auto t4 = service_.spanner().last_commit_ts();
  service_.Pump();
  // Reads inside retention still serve exactly.
  auto recent = service_.Get(kDb, Path("/r/doc"), t4);
  ASSERT_TRUE(recent.ok() && recent->has_value());
  EXPECT_EQ((*recent)->GetField(Field("v"))->integer_value(), 4);
  // The pre-horizon history collapsed to its newest version (the base for
  // horizon reads): version 1 is no longer distinguishable at t1, so reads
  // there fail instead of answering from the collapsed history.
  auto old_read = service_.Get(kDb, Path("/r/doc"), t1);
  EXPECT_EQ(old_read.status().code(), StatusCode::kFailedPrecondition);
  auto old_query = service_.RunQuery(kDb, Query(model::ResourcePath(), "r"),
                                     t3);
  EXPECT_EQ(old_query.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServiceTest, UnknownDatabaseRequestsMintNoTenantLabel) {
  const std::string ghost = "projects/p/databases/ghost";
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(service_.Get(ghost, Path("/r/doc")).status().code(),
              StatusCode::kNotFound);
  }
  for (const MetricSample& sample :
       MetricRegistry::Global().Snapshot().samples) {
    EXPECT_NE(sample.label, ghost) << sample.name;
  }
  // Requests to a real tenant are still counted.
  const int64_t before =
      testing::CounterValue("service.tenant.requests", kDb);
  ASSERT_TRUE(service_.Get(kDb, Path("/r/doc")).ok());
  EXPECT_EQ(testing::CounterValue("service.tenant.requests", kDb) - before,
            1);
}

TEST_F(ServiceTest, EveryDataPlaneRequestCountsOncePerTenant) {
  ASSERT_TRUE(service_
                  .SetRules(kDb, R"(
                    match /r/{id} {
                      allow read, write: if request.auth.uid == 'alice';
                    }
                  )")
                  .ok());
  Put("/r/doc", {{"n", Value::Integer(1)}});
  rules::AuthContext alice;
  alice.authenticated = true;
  alice.uid = "alice";
  const Query q(model::ResourcePath(), "r");
  // Each data-plane call, with the service counter and latency timer its
  // request kind records ("" where it has none). The end-user forms go
  // through the same entry points, so they record the same instruments.
  struct Call {
    std::string name;
    std::function<bool()> run;
    std::string counter;
    std::string timer;
  };
  const std::vector<Call> calls = {
      {"Commit",
       [&] {
         return service_
             .Commit(kDb, {Mutation::Set(Path("/r/doc"),
                                         {{"n", Value::Integer(2)}})})
             .ok();
       },
       "service.commits", "service.commit.latency"},
      {"Get", [&] { return service_.Get(kDb, Path("/r/doc")).ok(); },
       "service.gets", "service.get.latency"},
      {"RunQuery", [&] { return service_.RunQuery(kDb, q).ok(); },
       "service.queries", "service.query.latency"},
      {"RunCountQuery", [&] { return service_.RunCountQuery(kDb, q).ok(); },
       "service.count_queries", "service.count_query.latency"},
      {"RunSumQuery",
       [&] { return service_.RunSumQuery(kDb, q, Field("n")).ok(); },
       "service.sum_queries", "service.sum_query.latency"},
      {"RunTransaction",
       [&] {
         return service_
             .RunTransaction(kDb,
                             [](spanner::ReadWriteTransaction&)
                                 -> StatusOr<std::vector<Mutation>> {
                               return std::vector<Mutation>{Mutation::Set(
                                   Path("/r/doc"),
                                   {{"n", Value::Integer(4)}})};
                             })
             .ok();
       },
       "service.transactions", ""},
      {"end-user Commit",
       [&] {
         return service_
             .Commit(kDb,
                     {Mutation::Set(Path("/r/doc"),
                                    {{"n", Value::Integer(3)}})},
                     &alice)
             .ok();
       },
       "service.commits", "service.commit.latency"},
      {"end-user Get",
       [&] { return service_.Get(kDb, Path("/r/doc"), 0, &alice).ok(); },
       "service.gets", "service.get.latency"},
      {"end-user RunQuery",
       [&] { return service_.RunQuery(kDb, q, 0, &alice).ok(); },
       "service.queries", "service.query.latency"},
  };
  auto timer_count = [](const std::string& name) {
    return name.empty() ? 0 : MetricRegistry::Global().GetTimer(name).count();
  };
  for (const Call& call : calls) {
    const int64_t requests =
        testing::CounterValue("service.tenant.requests", kDb);
    const int64_t counted =
        call.counter.empty() ? 0 : testing::CounterValue(call.counter);
    const int64_t timed = timer_count(call.timer);
    ASSERT_TRUE(call.run()) << call.name;
    EXPECT_EQ(
        testing::CounterValue("service.tenant.requests", kDb) - requests, 1)
        << call.name;
    if (!call.counter.empty()) {
      EXPECT_EQ(testing::CounterValue(call.counter) - counted, 1)
          << call.name;
    }
    if (!call.timer.empty()) {
      EXPECT_EQ(timer_count(call.timer) - timed, 1) << call.name;
    }
  }
  // A request kind's fault point fails its end-user form too.
  {
    ScopedFault fault("service.get");
    EXPECT_EQ(service_.Get(kDb, Path("/r/doc"), 0, &alice).status().code(),
              StatusCode::kUnavailable);
  }
  // The aggregation entry points each have their own.
  {
    ScopedFault fault("service.count_query");
    EXPECT_EQ(service_.RunCountQuery(kDb, q).status().code(),
              StatusCode::kUnavailable);
    EXPECT_TRUE(service_.RunSumQuery(kDb, q, Field("n")).ok());
  }
  {
    ScopedFault fault("service.sum_query");
    EXPECT_EQ(service_.RunSumQuery(kDb, q, Field("n")).status().code(),
              StatusCode::kUnavailable);
    EXPECT_TRUE(service_.RunCountQuery(kDb, q).ok());
  }
}

// ---------------------------------------------------------------------------
// Admission control and isolation tooling (§VI)

TEST(AdmissionTest, InflightLimitRejectsExcess) {
  backend::AdmissionController admission;
  admission.SetInflightLimit("db", 2);
  auto t1 = admission.Admit("db");
  auto t2 = admission.Admit("db");
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_EQ(admission.inflight("db"), 2);
  auto t3 = admission.Admit("db");
  EXPECT_EQ(t3.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(admission.rejected(), 1);
  // Other databases are unaffected.
  EXPECT_TRUE(admission.Admit("other").ok());
  // Releasing a ticket frees a slot.
  t1->Release();
  EXPECT_TRUE(admission.Admit("db").ok());
}

TEST(AdmissionTest, TicketReleasesOnDestruction) {
  backend::AdmissionController admission;
  admission.SetInflightLimit("db", 1);
  {
    auto t = admission.Admit("db");
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(admission.inflight("db"), 1);
  }
  EXPECT_EQ(admission.inflight("db"), 0);
  admission.ClearInflightLimit("db");
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(admission.Admit("db").ok());
}

TEST(AdmissionTest, IsolatedPoolRouting) {
  backend::AdmissionController admission;
  EXPECT_EQ(admission.PoolFor("db"), "default");
  admission.RouteToIsolatedPool("db", "quarantine");
  EXPECT_EQ(admission.PoolFor("db"), "quarantine");
  EXPECT_EQ(admission.PoolFor("other"), "default");
  admission.ClearIsolatedPool("db");
  EXPECT_EQ(admission.PoolFor("db"), "default");
}

TEST(AdmissionTest, TrafficRampTracksConformance) {
  ManualClock clock(0);
  backend::TrafficRampTracker::Options options;
  options.base_qps = 10;  // small base for the test
  options.window = 1'000'000;
  options.growth_period = 10'000'000;
  backend::TrafficRampTracker tracker(&clock, options);
  // 5 QPS conforms to the 10 QPS base.
  bool conforming = true;
  for (int i = 0; i < 50; ++i) {
    clock.AdvanceBy(200'000);
    conforming = tracker.Record("db") && conforming;
  }
  EXPECT_TRUE(conforming);
  // A sudden 100 QPS burst violates the ramp.
  bool burst_conforming = true;
  for (int i = 0; i < 100; ++i) {
    clock.AdvanceBy(10'000);
    burst_conforming = tracker.Record("db") && burst_conforming;
  }
  EXPECT_FALSE(burst_conforming);
  // After enough growth periods the allowance catches up.
  clock.AdvanceBy(100'000'000);  // 10 growth periods
  EXPECT_GT(tracker.AllowedQps("db"), 100);
}

// ---------------------------------------------------------------------------
// Data validation jobs (§VI)

TEST_F(ServiceTest, ValidationCleanDatabase) {
  for (int i = 0; i < 10; ++i) {
    Put("/r/doc" + std::to_string(i),
        {{"a", Value::Integer(i)}, {"b", Value::String("x")}});
  }
  ASSERT_TRUE(
      service_.Commit(kDb, {Mutation::Delete(Path("/r/doc3"))}).ok());
  backend::DataValidationService validator(&service_.spanner());
  auto report =
      validator.ValidateDatabase(kDb, *service_.catalog(kDb)->Snapshot());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
  EXPECT_EQ(report->documents_checked, 9);
  EXPECT_GT(report->index_entries_checked, 0);
}

TEST_F(ServiceTest, ValidationDetectsOrphanAndMissingEntries) {
  Put("/r/doc", {{"a", Value::Integer(1)}});
  backend::DataValidationService validator(&service_.spanner());
  // Sabotage: delete one real index entry and add a bogus one, bypassing
  // the committer (simulating corruption).
  auto entries = service_.spanner().SnapshotScan(
      index::kIndexEntriesTable, "", "",
      service_.spanner().StrongReadTimestamp());
  ASSERT_TRUE(entries.ok());
  ASSERT_FALSE(entries->empty());
  auto txn = service_.spanner().BeginTransaction();
  txn->Delete(index::kIndexEntriesTable, (*entries)[0].key);
  txn->Put(index::kIndexEntriesTable, (*entries)[0].key + "bogus", "");
  ASSERT_TRUE(txn->Commit().ok());
  auto report =
      validator.ValidateDatabase(kDb, *service_.catalog(kDb)->Snapshot());
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clean());
  EXPECT_EQ(report->missing_entries.size(), 1u);
  EXPECT_EQ(report->orphan_entries.size(), 1u);
}

// A validation pass reads one catalog snapshot: entries of an index it does
// not know yet, materialized by a later write, are neither orphans nor
// expected, while a field it knows still counts strictly.
TEST_F(ServiceTest, ValidationSkipsIndexesNewerThanItsSnapshot) {
  Put("/r/one", {{"a", Value::Integer(1)}});
  std::shared_ptr<const index::CatalogSnapshot> before =
      service_.catalog(kDb)->Snapshot();
  Put("/r/two", {{"a", Value::Integer(2)}, {"fresh", Value::Integer(2)}});
  backend::DataValidationService validator(&service_.spanner());
  auto report = validator.ValidateDatabase(kDb, *before);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->Summary();
  EXPECT_EQ(report->index_entries_checked, 6);  // a x2 docs x2, fresh x2

  // Take one `a` entry away: the old snapshot still reports it missing.
  auto txn = service_.spanner().BeginTransaction();
  const index::IndexId a_asc =
      before->AutoIndexId("r", "a", index::SegmentKind::kAscending);
  txn->Delete(index::kIndexEntriesTable,
              index::IndexEntryKey(kDb, a_asc,
                                   codec::EncodeValueAsc(Value::Integer(2)),
                                   Path("/r/two")));
  ASSERT_TRUE(txn->Commit().ok());
  report = validator.ValidateDatabase(kDb, *before);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->missing_entries.size(), 1u) << report->Summary();
  EXPECT_TRUE(report->orphan_entries.empty()) << report->Summary();
}

TEST_F(ServiceTest, ValidationDetectsCorruptDocument) {
  Put("/r/doc", {{"a", Value::Integer(1)}});
  auto txn = service_.spanner().BeginTransaction();
  txn->Put(index::kEntitiesTable,
           index::EntityKey(kDb, Path("/r/doc")), "garbage-bytes");
  ASSERT_TRUE(txn->Commit().ok());
  backend::DataValidationService validator(&service_.spanner());
  auto report =
      validator.ValidateDatabase(kDb, *service_.catalog(kDb)->Snapshot());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->corrupt_documents.size(), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end checksums (§VI)

TEST(ChecksumTest, RoundTripAndKnownValues) {
  EXPECT_EQ(Crc32c(""), 0u);
  // Known CRC32C vector: "123456789" -> 0xe3069283.
  EXPECT_EQ(Crc32c("123456789"), 0xe3069283u);
  std::string frame = "payload-bytes";
  AppendChecksum(frame);
  std::string_view view = frame;
  EXPECT_TRUE(VerifyAndStripChecksum(&view));
  EXPECT_EQ(view, "payload-bytes");
}

TEST(ChecksumTest, DetectsCorruption) {
  std::string frame = "payload";
  AppendChecksum(frame);
  frame[2] ^= 0x01;  // flip one bit in flight
  std::string_view view = frame;
  EXPECT_FALSE(VerifyAndStripChecksum(&view));
  std::string_view tiny = "abc";
  EXPECT_FALSE(VerifyAndStripChecksum(&tiny));
}

TEST(ChecksumTest, TriggerEventsRejectCorruptPayloads) {
  backend::TriggerEvent event;
  event.database_id = "db";
  event.function_name = "fn";
  event.change.name = Path("/c/d");
  std::string wire = event.Serialize();
  ASSERT_TRUE(backend::TriggerEvent::Parse(wire).ok());
  wire[wire.size() / 2] ^= 0x40;
  EXPECT_FALSE(backend::TriggerEvent::Parse(wire).ok());
}

TEST(ChecksumTest, ClientCacheRejectsCorruptPersistence) {
  client::LocalStore store;
  store.ApplyServerDocument(Path("/c/d"),
                            model::Document(Path("/c/d"), {}), 5);
  std::string bytes = store.Serialize();
  ASSERT_TRUE(client::LocalStore::Parse(bytes).ok());
  bytes[0] ^= 0x01;
  EXPECT_FALSE(client::LocalStore::Parse(bytes).ok());
}

}  // namespace
}  // namespace firestore::service
