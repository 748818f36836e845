#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "firestore/index/backfill.h"
#include "firestore/index/extractor.h"
#include "firestore/query/executor.h"
#include "firestore/query/planner.h"
#include "firestore/query/query.h"
#include "tests/test_support.h"

namespace firestore::query {
namespace {

using index::IndexState;
using index::SegmentKind;
using model::Map;
using model::Value;
using testing::Field;
using testing::Path;
using testing::TestTenant;

// ---------------------------------------------------------------------------
// Validation

TEST(QueryValidationTest, AcceptsWellFormed) {
  Query q(model::ResourcePath(), "restaurants");
  q.Where(Field("city"), Operator::kEqual, Value::String("SF"))
      .Where(Field("numRatings"), Operator::kGreaterThan, Value::Integer(2))
      .OrderByField(Field("numRatings"))
      .Limit(10);
  EXPECT_TRUE(q.Validate().ok());
}

TEST(QueryValidationTest, RejectsTwoInequalityFields) {
  Query q(model::ResourcePath(), "r");
  q.Where(Field("a"), Operator::kGreaterThan, Value::Integer(1))
      .Where(Field("b"), Operator::kLessThan, Value::Integer(5));
  EXPECT_EQ(q.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(QueryValidationTest, AllowsRangeOnOneField) {
  Query q(model::ResourcePath(), "r");
  q.Where(Field("a"), Operator::kGreaterThan, Value::Integer(1))
      .Where(Field("a"), Operator::kLessThanOrEqual, Value::Integer(5));
  EXPECT_TRUE(q.Validate().ok());
}

TEST(QueryValidationTest, InequalityMustMatchFirstOrder) {
  Query q(model::ResourcePath(), "r");
  q.Where(Field("a"), Operator::kGreaterThan, Value::Integer(1))
      .OrderByField(Field("b"), true);
  EXPECT_EQ(q.Validate().code(), StatusCode::kInvalidArgument);
  Query ok(model::ResourcePath(), "r");
  ok.Where(Field("a"), Operator::kGreaterThan, Value::Integer(1))
      .OrderByField(Field("a"))
      .OrderByField(Field("b"), true);
  EXPECT_TRUE(ok.Validate().ok());
}

TEST(QueryValidationTest, RejectsNegativeLimitAndDuplicateOrder) {
  Query q(model::ResourcePath(), "r");
  q.Limit(-1);
  EXPECT_FALSE(q.Validate().ok());
  Query dup(model::ResourcePath(), "r");
  dup.OrderByField(Field("a")).OrderByField(Field("a"), true);
  EXPECT_FALSE(dup.Validate().ok());
}

TEST(QueryTest, NormalizedOrderAddsInequalityField) {
  Query q(model::ResourcePath(), "r");
  q.Where(Field("a"), Operator::kGreaterThan, Value::Integer(1));
  auto order = q.NormalizedOrderBy();
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0].field.CanonicalString(), "a");
  EXPECT_FALSE(order[0].descending);
}

TEST(QueryTest, MatchesOnlyDirectChildrenOfTheCollection) {
  Query root(model::ResourcePath(), "games");
  Query sub(Path("/x/d0"), "games");
  model::Document top(Path("/games/g1"), {});
  model::Document nested(Path("/x/d0/games/g1"), {});
  model::Document deeper(Path("/games/g1/games/g2"), {});
  model::Document sibling(Path("/x/d1/games/g1"), {});
  EXPECT_TRUE(root.Matches(top));
  // Same collection id, but under another parent or one level deeper.
  EXPECT_FALSE(root.Matches(nested));
  EXPECT_FALSE(root.Matches(deeper));
  EXPECT_TRUE(sub.Matches(nested));
  EXPECT_FALSE(sub.Matches(top));
  EXPECT_FALSE(sub.Matches(sibling));
}

TEST(QueryTest, CompareOrdersByImpliedInequalityFieldThenName) {
  Query q(model::ResourcePath(), "r");
  q.Where(Field("a"), Operator::kGreaterThan, Value::Integer(0));
  model::Document low(Path("/r/z"), {{"a", Value::Integer(1)}});
  model::Document high(Path("/r/b"), {{"a", Value::Double(2.5)}});
  model::Document tie(Path("/r/y"), {{"a", Value::Double(1.0)}});
  // The implied ascending order on `a` wins over the name order.
  EXPECT_LT(q.Compare(low, high), 0);
  EXPECT_GT(q.Compare(high, low), 0);
  // Equal values (1 == 1.0) fall back to the name.
  EXPECT_GT(q.Compare(low, tie), 0);
  EXPECT_EQ(q.Compare(low, low), 0);
  // An explicit descending order on the same field replaces the implied one.
  Query desc(model::ResourcePath(), "r");
  desc.Where(Field("a"), Operator::kGreaterThan, Value::Integer(0))
      .OrderByField(Field("a"), /*descending=*/true);
  EXPECT_GT(desc.Compare(low, high), 0);
}

TEST(QueryTest, MatchesHonoursTheStartCursor) {
  auto ranked = [](std::string_view path, int64_t rank) {
    return model::Document(Path(path), {{"rank", Value::Integer(rank)}});
  };
  const model::Document low = ranked("/r/a", 1);
  const model::Document tie_before = ranked("/r/ab", 2);
  const model::Document cursor = ranked("/r/b", 2);
  const model::Document tie_after = ranked("/r/c", 2);
  const model::Document high = ranked("/r/d", 3);
  const model::Document unranked(Path("/r/e"), {{"x", Value::Integer(2)}});

  // Ascending: order values first, then the name breaks the tie.
  Query after(model::ResourcePath(), "r");
  after.OrderByField(Field("rank")).StartAfterDoc(cursor);
  ASSERT_TRUE(after.Validate().ok());
  EXPECT_FALSE(after.Matches(low));
  EXPECT_FALSE(after.Matches(tie_before));
  EXPECT_FALSE(after.Matches(cursor));
  EXPECT_TRUE(after.Matches(tie_after));
  EXPECT_TRUE(after.Matches(high));
  EXPECT_FALSE(after.Matches(unranked));
  Query at(model::ResourcePath(), "r");
  at.OrderByField(Field("rank")).StartAtDoc(cursor);
  EXPECT_FALSE(at.Matches(tie_before));
  EXPECT_TRUE(at.Matches(cursor));
  EXPECT_TRUE(at.Matches(tie_after));

  // Descending: higher ranks come first, the name tie-break stays
  // ascending (as in Compare).
  Query desc_after(model::ResourcePath(), "r");
  desc_after.OrderByField(Field("rank"), /*descending=*/true)
      .StartAfterDoc(cursor);
  EXPECT_TRUE(desc_after.Matches(low));
  EXPECT_FALSE(desc_after.Matches(tie_before));
  EXPECT_FALSE(desc_after.Matches(cursor));
  EXPECT_TRUE(desc_after.Matches(tie_after));
  EXPECT_FALSE(desc_after.Matches(high));
  EXPECT_FALSE(desc_after.Matches(unranked));
  Query desc_at(model::ResourcePath(), "r");
  desc_at.OrderByField(Field("rank"), /*descending=*/true).StartAtDoc(cursor);
  EXPECT_TRUE(desc_at.Matches(cursor));
  EXPECT_FALSE(desc_at.Matches(high));

  // An inequality's implied order, and a query ordered by name alone.
  Query implied(model::ResourcePath(), "r");
  implied.Where(Field("rank"), Operator::kGreaterThan, Value::Integer(0))
      .StartAfterDoc(cursor);
  EXPECT_FALSE(implied.Matches(tie_before));
  EXPECT_TRUE(implied.Matches(tie_after));
  Query by_name(model::ResourcePath(), "r");
  by_name.StartAfterDoc(cursor);
  EXPECT_FALSE(by_name.Matches(tie_before));
  EXPECT_FALSE(by_name.Matches(cursor));
  EXPECT_TRUE(by_name.Matches(tie_after));
  EXPECT_TRUE(by_name.Matches(unranked));
}

TEST(QueryTest, DocumentEqualityComparesNumbersByValue) {
  model::Document a(Path("/r/a"),
                    {{"n", Value::Integer(3)},
                     {"m", Value::FromMap({{"k", Value::Integer(1)}})}});
  model::Document b(Path("/r/a"),
                    {{"n", Value::Double(3.0)},
                     {"m", Value::FromMap({{"k", Value::Double(1.0)}})}});
  EXPECT_TRUE(a == b);
  b.SetField(Field("n"), Value::Double(3.5));
  EXPECT_FALSE(a == b);
  model::Document renamed(Path("/r/b"), a.fields());
  EXPECT_FALSE(a == renamed);
  model::Document extra = a;
  extra.SetField(Field("x"), Value::Null());
  EXPECT_FALSE(a == extra);
}

// ---------------------------------------------------------------------------
// Fixture with the restaurant dataset

class QueryExecutionTest : public ::testing::Test {
 protected:
  QueryExecutionTest() {
    struct Row {
      const char* id;
      const char* city;
      const char* type;
      double rating;
      int num_ratings;
    };
    const Row rows[] = {
        {"r1", "SF", "BBQ", 4.5, 20},  {"r2", "SF", "Thai", 4.0, 10},
        {"r3", "SF", "BBQ", 3.0, 2},   {"r4", "NYC", "BBQ", 5.0, 30},
        {"r5", "NYC", "Cafe", 2.0, 1}, {"r6", "LA", "Thai", 3.5, 8},
        {"r7", "LA", "BBQ", 4.5, 15},  {"r8", "SEA", "Cafe", 4.8, 40},
    };
    for (const Row& r : rows) {
      Map fields;
      fields["city"] = Value::String(r.city);
      fields["type"] = Value::String(r.type);
      fields["avgRating"] = Value::Double(r.rating);
      fields["numRatings"] = Value::Integer(r.num_ratings);
      t_.Put(std::string("/restaurants/") + r.id, std::move(fields));
    }
  }

  std::vector<std::string> Ids(const backend::RunQueryResult& r) {
    std::vector<std::string> ids;
    for (const auto& doc : r.result.documents) {
      ids.push_back(doc.name().last_segment());
    }
    return ids;
  }

  Query Restaurants() { return Query(model::ResourcePath(), "restaurants"); }

  TestTenant t_;
};

TEST_F(QueryExecutionTest, CollectionScanReturnsAllInNameOrder) {
  auto r = t_.Run(Restaurants());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<std::string>{"r1", "r2", "r3", "r4", "r5",
                                               "r6", "r7", "r8"}));
  EXPECT_EQ(r->plan_description, "collection-scan(Entities)");
}

TEST_F(QueryExecutionTest, SingleEqualityUsesAutoIndex) {
  auto r = t_.Run(Restaurants().Where(Field("city"), Operator::kEqual,
                                      Value::String("SF")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<std::string>{"r1", "r2", "r3"}));
  EXPECT_NE(r->plan_description.find("city asc"), std::string::npos);
}

TEST_F(QueryExecutionTest, EqualityConjunctionZigZagJoins) {
  auto r = t_.Run(Restaurants()
                      .Where(Field("city"), Operator::kEqual,
                             Value::String("SF"))
                      .Where(Field("type"), Operator::kEqual,
                             Value::String("BBQ")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<std::string>{"r1", "r3"}));
  EXPECT_NE(r->plan_description.find("zigzag-join"), std::string::npos);
}

TEST_F(QueryExecutionTest, InequalityWithImplicitOrder) {
  auto r = t_.Run(Restaurants().Where(
      Field("numRatings"), Operator::kGreaterThan, Value::Integer(2)));
  ASSERT_TRUE(r.ok());
  // Ordered by numRatings ascending: r6(8), r2(10), r7(15), r1(20), r4(30),
  // r8(40). r3(2) and r5(1) excluded.
  EXPECT_EQ(Ids(*r),
            (std::vector<std::string>{"r6", "r2", "r7", "r1", "r4", "r8"}));
}

TEST_F(QueryExecutionTest, RangeBothBounds) {
  auto r = t_.Run(Restaurants()
                      .Where(Field("numRatings"), Operator::kGreaterThanOrEqual,
                             Value::Integer(8))
                      .Where(Field("numRatings"), Operator::kLessThan,
                             Value::Integer(30)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<std::string>{"r6", "r2", "r7", "r1"}));
}

TEST_F(QueryExecutionTest, InequalityExcludesOtherTypes) {
  // A string-valued field on one doc must not leak into a numeric range.
  t_.Put("/restaurants/weird", {{"numRatings", Value::String("many")},
                                {"city", Value::String("SF")}});
  auto r = t_.Run(Restaurants().Where(
      Field("numRatings"), Operator::kGreaterThan, Value::Integer(0)));
  ASSERT_TRUE(r.ok());
  for (const std::string& id : Ids(*r)) EXPECT_NE(id, "weird");
  EXPECT_EQ(Ids(*r).size(), 8u);
}

TEST_F(QueryExecutionTest, OrderByDescending) {
  auto r = t_.Run(Restaurants().OrderByField(Field("avgRating"), true));
  ASSERT_TRUE(r.ok());
  // 5.0, 4.8, 4.5, 4.5, 4.0, 3.5, 3.0, 2.0 — ties broken by name (r1 < r7).
  EXPECT_EQ(Ids(*r), (std::vector<std::string>{"r4", "r8", "r1", "r7", "r2",
                                               "r6", "r3", "r5"}));
}

TEST_F(QueryExecutionTest, LimitAndOffset) {
  auto r = t_.Run(
      Restaurants().OrderByField(Field("avgRating"), true).Limit(3));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<std::string>{"r4", "r8", "r1"}));
  auto page2 = t_.Run(Restaurants()
                          .OrderByField(Field("avgRating"), true)
                          .Offset(3)
                          .Limit(3));
  ASSERT_TRUE(page2.ok());
  EXPECT_EQ(Ids(*page2), (std::vector<std::string>{"r7", "r2", "r6"}));
}

TEST_F(QueryExecutionTest, LimitStopsScanEarly) {
  auto all = t_.Run(Restaurants().OrderByField(Field("avgRating"), true));
  auto limited =
      t_.Run(Restaurants().OrderByField(Field("avgRating"), true).Limit(2));
  ASSERT_TRUE(all.ok() && limited.ok());
  EXPECT_LT(limited->result.stats.index_rows_scanned,
            all->result.stats.index_rows_scanned);
}

TEST_F(QueryExecutionTest, EqualityPlusOrderNeedsCompositeIndex) {
  Query q = Restaurants()
                .Where(Field("city"), Operator::kEqual, Value::String("SF"))
                .OrderByField(Field("avgRating"), true);
  auto fail = t_.Run(q);
  ASSERT_FALSE(fail.ok());
  EXPECT_EQ(fail.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(fail.status().message().find("composite index"),
            std::string::npos);
  // Create the suggested index; the query now works.
  auto id = t_.backfill().CreateIndex(
      t_.catalog(), t_.id(), "restaurants",
      {{Field("city"), SegmentKind::kAscending},
       {Field("avgRating"), SegmentKind::kDescending}});
  ASSERT_TRUE(id.ok());
  auto r = t_.Run(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<std::string>{"r1", "r2", "r3"}));
}

TEST_F(QueryExecutionTest, PaperExampleJoinOfTwoCompositeIndexes) {
  // §IV-D3: city=="New York" and type=="BBQ" order by avgRating desc is
  // executed by joining (city asc, avgRating desc) and
  // (type asc, avgRating desc).
  ASSERT_TRUE(t_.backfill()
                  .CreateIndex(t_.catalog(), t_.id(), "restaurants",
                               {{Field("city"), SegmentKind::kAscending},
                                {Field("avgRating"),
                                 SegmentKind::kDescending}})
                  .ok());
  ASSERT_TRUE(t_.backfill()
                  .CreateIndex(t_.catalog(), t_.id(), "restaurants",
                               {{Field("type"), SegmentKind::kAscending},
                                {Field("avgRating"),
                                 SegmentKind::kDescending}})
                  .ok());
  auto r = t_.Run(Restaurants()
                      .Where(Field("city"), Operator::kEqual,
                             Value::String("SF"))
                      .Where(Field("type"), Operator::kEqual,
                             Value::String("BBQ"))
                      .OrderByField(Field("avgRating"), true));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<std::string>{"r1", "r3"}));
  EXPECT_NE(r->plan_description.find("zigzag-join"), std::string::npos);
}

TEST_F(QueryExecutionTest, InequalityPlusEqualityViaComposite) {
  ASSERT_TRUE(t_.backfill()
                  .CreateIndex(t_.catalog(), t_.id(), "restaurants",
                               {{Field("city"), SegmentKind::kAscending},
                                {Field("numRatings"),
                                 SegmentKind::kAscending}})
                  .ok());
  auto r = t_.Run(Restaurants()
                      .Where(Field("city"), Operator::kEqual,
                             Value::String("SF"))
                      .Where(Field("numRatings"), Operator::kGreaterThan,
                             Value::Integer(5)));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<std::string>{"r2", "r1"}));
}

TEST_F(QueryExecutionTest, ArrayContains) {
  t_.Put("/restaurants/tagged1",
         {{"tags", Value::FromArray({Value::String("vegan"),
                                     Value::String("patio")})}});
  t_.Put("/restaurants/tagged2",
         {{"tags", Value::FromArray({Value::String("patio")})}});
  auto r = t_.Run(Restaurants().Where(Field("tags"),
                                      Operator::kArrayContains,
                                      Value::String("vegan")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<std::string>{"tagged1"}));
  auto both = t_.Run(Restaurants().Where(Field("tags"),
                                         Operator::kArrayContains,
                                         Value::String("patio")));
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(Ids(*both), (std::vector<std::string>{"tagged1", "tagged2"}));
}

// An automatic array-contains index that a drop is removing serves no
// query, as an exempted field's index does not.
TEST_F(QueryExecutionTest, ArrayContainsOnARemovingIndexFails) {
  t_.Put("/restaurants/tagged1",
         {{"tags", Value::FromArray({Value::String("vegan")})}});
  const index::IndexId id = t_.catalog().Snapshot()->AutoIndexId(
      "restaurants", "tags", SegmentKind::kArrayContains);
  ASSERT_NE(id, 0);
  ASSERT_TRUE(t_.catalog().SetIndexState(id, IndexState::kRemoving).ok());
  auto r = t_.Run(Restaurants().Where(Field("tags"), Operator::kArrayContains,
                                      Value::String("vegan")));
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition)
      << (r.ok() ? r->plan_description : r.status().message());
}

TEST_F(QueryExecutionTest, ProjectionReturnsRequestedFieldsOnly) {
  auto r = t_.Run(Restaurants()
                      .Where(Field("city"), Operator::kEqual,
                             Value::String("SF"))
                      .Project({Field("avgRating")}));
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->result.documents.empty());
  for (const auto& doc : r->result.documents) {
    EXPECT_TRUE(doc.GetField(Field("avgRating")).has_value());
    EXPECT_FALSE(doc.GetField(Field("city")).has_value());
  }
}

TEST_F(QueryExecutionTest, ExemptedFieldQueryFails) {
  t_.catalog().AddExemption("restaurants", Field("city"));
  auto r = t_.Run(Restaurants().Where(Field("city"), Operator::kEqual,
                                      Value::String("SF")));
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(QueryExecutionTest, SubCollectionQueriesScopeToParent) {
  t_.Put("/restaurants/r1/ratings/a", {{"rating", Value::Integer(5)}});
  t_.Put("/restaurants/r1/ratings/b", {{"rating", Value::Integer(3)}});
  t_.Put("/restaurants/r2/ratings/c", {{"rating", Value::Integer(1)}});
  Query q(Path("/restaurants/r1"), "ratings");
  auto r = t_.Run(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Ids(*r), (std::vector<std::string>{"a", "b"}));
  // With a filter: the collection-group index spans parents, but results
  // stay scoped to r1.
  Query filtered = q;
  filtered.Where(Field("rating"), Operator::kGreaterThan, Value::Integer(0));
  auto fr = t_.Run(filtered);
  ASSERT_TRUE(fr.ok());
  EXPECT_EQ(Ids(*fr), (std::vector<std::string>{"b", "a"}));  // by rating
}

TEST_F(QueryExecutionTest, QueryAtPastTimestampSeesOldData) {
  auto before = t_.spanner().StrongReadTimestamp();
  t_.Put("/restaurants/new1", {{"city", Value::String("SF")}});
  auto now_result = t_.Run(Restaurants().Where(
      Field("city"), Operator::kEqual, Value::String("SF")));
  ASSERT_TRUE(now_result.ok());
  EXPECT_EQ(now_result->result.documents.size(), 4u);
  auto past_result = t_.Run(Restaurants().Where(Field("city"),
                                                Operator::kEqual,
                                                Value::String("SF")),
                            before);
  ASSERT_TRUE(past_result.ok());
  EXPECT_EQ(past_result->result.documents.size(), 3u);
}

TEST_F(QueryExecutionTest, MixedNumericTypesMatchEquality) {
  t_.Put("/restaurants/intRated", {{"avgRating", Value::Integer(4)}});
  t_.Put("/restaurants/dblRated", {{"avgRating", Value::Double(4.0)}});
  auto r = t_.Run(Restaurants().Where(Field("avgRating"), Operator::kEqual,
                                      Value::Integer(4)));
  ASSERT_TRUE(r.ok());
  // r2 stores Double(4.0), which equals Integer(4) numerically.
  EXPECT_EQ(Ids(*r),
            (std::vector<std::string>{"dblRated", "intRated", "r2"}));
}

TEST_F(QueryExecutionTest, DocumentsMissingOrderFieldExcluded) {
  t_.Put("/restaurants/norating", {{"city", Value::String("SF")}});
  auto r = t_.Run(Restaurants().OrderByField(Field("avgRating")));
  ASSERT_TRUE(r.ok());
  for (const std::string& id : Ids(*r)) EXPECT_NE(id, "norating");
  EXPECT_EQ(Ids(*r).size(), 8u);
}

TEST_F(QueryExecutionTest, QueryInTransactionSeesLockedConsistentData) {
  auto txn = t_.spanner().BeginTransaction();
  Query q = Restaurants().Where(Field("city"), Operator::kEqual,
                                Value::String("SF"));
  auto r = t_.reader().RunQueryInTransaction(t_.id(), t_.catalog(), q, *txn);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->documents.size(), 3u);
  txn->Abort();
}

// ---------------------------------------------------------------------------
// The plan walker across storage pages. Both equality posting lists are
// longer than one scan page (256 rows), so scans and joins seek within and
// across pages. The stats are pinned exactly: billing reads
// index_rows_scanned; a single scan counts the rows it lands on and makes no
// seeks, while a join counts one seek and one row per positioning call.

TEST(QueryWalkerTest, PagedScansAndJoinsKeepResultsAndStats) {
  TestTenant t;
  std::vector<model::Document> corpus;
  auto put = [&](const std::string& path, bool x, bool p) {
    Map fields;
    fields["a"] = Value::String(x ? "x" : "y");
    fields["b"] = Value::String(p ? "p" : "q");
    t.Put(path, fields);
    corpus.emplace_back(Path(path), fields);
  };
  for (int i = 0; i < 800; ++i) {
    std::string id = std::to_string(i);
    put("/items/d" + std::string(3 - id.size(), '0') + id, i % 2 == 0,
        i % 3 == 0);
  }
  // Same collection id under a document: in both the index entries and the
  // Entities range, and scoped out of every result.
  for (int i = 0; i < 3; ++i) {
    put("/items/d300/items/e" + std::to_string(i), true, true);
  }

  auto items = [] { return Query(model::ResourcePath(), "items"); };
  auto eq = [](Query q, const char* field, const char* value) {
    q.Where(Field(field), Operator::kEqual, Value::String(value));
    return q;
  };
  struct Case {
    Query query;
    std::string plan;
    int64_t rows_scanned;
    int64_t seeks;
    int64_t fetched;
  };
  const std::string a_index = "index#1 on items (a asc)";
  const std::string join =
      "zigzag-join(index#1 on items (a asc), index#3 on items (b asc))";
  const std::vector<Case> cases = {
      {items().StartAfterDoc(corpus[300]), "collection-scan(Entities)", 502,
       0, 499},
      {eq(items(), "a", "x").Limit(300), a_index, 303, 0, 300},
      {eq(eq(items(), "a", "x"), "b", "p"), join, 674, 674, 134},
      {eq(eq(items(), "a", "x"), "b", "p").Limit(20), join, 97, 97, 20},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.query.CanonicalString());
    std::vector<std::string> expected;
    for (const model::Document& doc : corpus) {
      if (c.query.Matches(doc)) {
        expected.push_back(doc.name().CanonicalString());
      }
    }
    std::sort(expected.begin(), expected.end());
    if (c.query.start_cursor().has_value()) {  // d000..d300 are out
      const model::ResourcePath& cursor = c.query.start_cursor()->name;
      std::erase_if(expected, [&](const std::string& name) {
        return Path(name).Compare(cursor) <= 0;
      });
    }
    if (c.query.limit() > 0) expected.resize(c.query.limit());

    auto names = [](const QueryResult& r) {
      std::vector<std::string> out;
      for (const auto& doc : r.documents) {
        out.push_back(doc.name().CanonicalString());
      }
      return out;
    };
    auto check_stats = [&](const QueryStats& s) {
      EXPECT_EQ(s.index_rows_scanned, c.rows_scanned);
      EXPECT_EQ(s.seeks, c.seeks);
      EXPECT_EQ(s.entities_fetched, c.fetched);
    };
    auto run = t.Run(c.query);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_EQ(run->plan_description, c.plan);
    EXPECT_EQ(names(run->result), expected);
    check_stats(run->result.stats);

    auto txn = t.spanner().BeginTransaction();
    auto in_txn =
        t.reader().RunQueryInTransaction(t.id(), t.catalog(), c.query, *txn);
    ASSERT_TRUE(in_txn.ok()) << in_txn.status();
    EXPECT_EQ(names(*in_txn), expected);
    check_stats(in_txn->stats);
    txn->Abort();
  }
}

// A single range under a limit reads a first page of limit + offset + 1
// rows, and each later page doubles up to the full 256, so storage copies
// about as many rows as the query can use. Read as spanner.rows.scanned,
// the rows storage returned to scans.
TEST(QueryWalkerTest, LimitedSingleScansFetchOnlyTheRowsTheyUse) {
  TestTenant t;
  std::vector<model::Document> corpus;
  auto put = [&](const std::string& path, Map fields) {
    t.Put(path, fields);
    corpus.emplace_back(Path(path), std::move(fields));
  };
  auto id = [](int i) {
    std::string s = std::to_string(i);
    return "d" + std::string(3 - s.size(), '0') + s;
  };
  for (int i = 0; i < 320; ++i) {
    put("/items/" + id(i),
        {{"a", Value::String("x")}, {"b", Value::String("p")}});
  }
  // Collection-group candidates right after /items/d000 in b's posting
  // list, scoped out of every result.
  for (int i = 0; i < 60; ++i) {
    put("/items/d000/items/" + id(i), {{"b", Value::String("p")}});
  }
  auto eq = [](const char* field, const char* value) {
    Query q(model::ResourcePath(), "items");
    q.Where(Field(field), Operator::kEqual, Value::String(value));
    return q;
  };
  auto expect_result = [&](const Query& q, const QueryResult& r) {
    std::vector<std::string> expected;
    for (const model::Document& doc : corpus) {
      if (q.Matches(doc)) expected.push_back(doc.name().CanonicalString());
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(expected.begin(), expected.begin() + q.offset());
    expected.resize(q.limit());
    std::vector<std::string> names;
    for (const auto& doc : r.documents) {
      names.push_back(doc.name().CanonicalString());
    }
    EXPECT_EQ(names, expected);
  };
  struct Case {
    Query query;
    int64_t max_rows_fetched;
  };
  const std::vector<Case> cases = {
      {eq("a", "x").Limit(20), 21},
      {eq("a", "x").Offset(10).Limit(20), 31},
      // 20 results past 60 rejected candidates take pages of 21, 42 and 84.
      {eq("b", "p").Limit(20), 21 + 42 + 84},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.query.CanonicalString());
    const int64_t scanned = testing::CounterValue("spanner.rows.scanned");
    auto run = t.Run(c.query);
    ASSERT_TRUE(run.ok()) << run.status();
    EXPECT_LE(testing::CounterValue("spanner.rows.scanned") - scanned,
              c.max_rows_fetched);
    expect_result(c.query, run->result);
  }

  // Inside a transaction, buffered deletes in the first page must not
  // shorten it: the walk still fills the limit, and locks only the rows of
  // the one page it read plus the documents it fetched.
  const Query limited = eq("a", "x").Limit(20);
  std::shared_ptr<const index::CatalogSnapshot> catalog =
      t.catalog().Snapshot();
  const index::IndexDefinition* a_index = catalog->Find(
      catalog->AutoIndexId("items", "a", SegmentKind::kAscending));
  ASSERT_NE(a_index, nullptr);
  auto txn = t.spanner().BeginTransaction();
  std::erase_if(corpus, [&](const model::Document& doc) {
    const std::string& name = doc.name().CanonicalString();
    if (name != "/items/d002" && name != "/items/d005" &&
        name != "/items/d007") {
      return false;
    }
    txn->Delete(index::kEntitiesTable, index::EntityKey(t.id(), doc.name()));
    for (const std::string& key :
         index::ComputeEntriesForIndex(*a_index, t.id(), doc)) {
      txn->Delete(index::kIndexEntriesTable, key);
    }
    return true;
  });
  const int64_t scanned = testing::CounterValue("spanner.rows.scanned");
  auto in_txn =
      t.reader().RunQueryInTransaction(t.id(), t.catalog(), limited, *txn);
  ASSERT_TRUE(in_txn.ok()) << in_txn.status();
  expect_result(limited, *in_txn);
  // One page of 21 rows, fetched with one more row per buffered delete.
  EXPECT_LE(testing::CounterValue("spanner.rows.scanned") - scanned, 21 + 3);
  EXPECT_LE(t.spanner().lock_manager().LockCount(), 21 + 20);
  txn->Abort();
}

// ---------------------------------------------------------------------------
// Randomized differential test: executor vs. brute-force evaluation.

class QueryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryPropertyTest, ExecutorAgreesWithBruteForce) {
  TestTenant t;
  Rng rng(GetParam());
  const std::vector<std::string> cities = {"SF", "NYC", "LA"};
  std::vector<model::Document> corpus;
  for (int i = 0; i < 40; ++i) {
    Map fields;
    fields["city"] = Value::String(cities[rng.Uniform(0, 2)]);
    fields["rating"] = rng.Bernoulli(0.5)
                           ? Value::Integer(rng.Uniform(0, 5))
                           : Value::Double(rng.NextDouble() * 5);
    if (rng.Bernoulli(0.7)) {
      fields["pop"] = Value::Integer(rng.Uniform(0, 100));
    }
    std::string path = "/docs/d" + std::to_string(i);
    t.Put(path, fields);
    model::Document doc(testing::Path(path), fields);
    corpus.push_back(doc);
  }
  // Same collection id, another parent: every plan shape scans these rows
  // (collection-group index entries, or Entities keys under /docs/d0) and
  // must scope them out.
  for (int i = 0; i < 5; ++i) {
    Map fields;
    fields["city"] = Value::String(cities[i % 3]);
    fields["rating"] = Value::Integer(i);
    fields["pop"] = Value::Integer(20 * i);
    std::string path = "/docs/d0/docs/e" + std::to_string(i);
    t.Put(path, fields);
    corpus.push_back(model::Document(testing::Path(path), fields));
  }
  // A set of random but valid queries.
  for (int iter = 0; iter < 25; ++iter) {
    Query q(model::ResourcePath(), "docs");
    if (rng.Bernoulli(0.6)) {
      q.Where(Field("city"), Operator::kEqual,
              Value::String(cities[rng.Uniform(0, 2)]));
    }
    bool has_ineq = rng.Bernoulli(0.5);
    if (has_ineq) {
      Operator op = rng.Bernoulli(0.5) ? Operator::kGreaterThan
                                       : Operator::kLessThanOrEqual;
      q.Where(Field("pop"), op, Value::Integer(rng.Uniform(0, 100)));
    }
    if (rng.Bernoulli(0.3)) q.Limit(rng.Uniform(1, 10));
    if (rng.Bernoulli(0.3)) q.Offset(rng.Uniform(1, 3));
    // Brute force.
    std::vector<model::Document> expected;
    for (const auto& doc : corpus) {
      if (q.Matches(doc)) expected.push_back(doc);
    }
    std::sort(expected.begin(), expected.end(),
              [&](const model::Document& a, const model::Document& b) {
                return q.Compare(a, b) < 0;
              });
    const int64_t matched = static_cast<int64_t>(expected.size());
    expected.erase(expected.begin(),
                   expected.begin() + std::min(q.offset(), matched));
    if (q.limit() > 0 &&
        static_cast<int64_t>(expected.size()) > q.limit()) {
      expected.resize(q.limit());
    }
    int64_t pop_sum = 0, pop_count = 0;
    for (const auto& doc : expected) {
      std::optional<Value> pop = doc.GetField(Field("pop"));
      if (!pop.has_value()) continue;
      pop_sum += pop->integer_value();
      ++pop_count;
    }
    auto run = t.Run(q);
    if (!run.ok()) {
      // The only acceptable failure is a missing composite index.
      ASSERT_EQ(run.status().code(), StatusCode::kFailedPrecondition)
          << q.CanonicalString() << ": " << run.status();
      continue;
    }
    ASSERT_EQ(run->result.documents.size(), expected.size())
        << q.CanonicalString();
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(run->result.documents[i].name().CanonicalString(),
                expected[i].name().CanonicalString())
          << q.CanonicalString() << " position " << i;
    }
    auto count = t.reader().RunCountQuery(t.id(), t.catalog(), q);
    ASSERT_TRUE(count.ok()) << q.CanonicalString() << ": " << count.status();
    EXPECT_EQ(count->count, static_cast<int64_t>(expected.size()))
        << q.CanonicalString();
    auto sum = t.reader().RunSumQuery(t.id(), t.catalog(), q, Field("pop"));
    ASSERT_TRUE(sum.ok()) << q.CanonicalString() << ": " << sum.status();
    EXPECT_TRUE(sum->aggregate.is_integer) << q.CanonicalString();
    EXPECT_EQ(sum->aggregate.sum_integer, pop_sum) << q.CanonicalString();
    EXPECT_EQ(sum->aggregate.count, pop_count) << q.CanonicalString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace firestore::query
