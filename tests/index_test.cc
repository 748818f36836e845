#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/random.h"
#include "firestore/codec/document_codec.h"
#include "firestore/codec/value_codec.h"
#include "firestore/index/backfill.h"
#include "firestore/index/catalog.h"
#include "firestore/index/extractor.h"
#include "firestore/index/layout.h"
#include "firestore/query/query.h"
#include "tests/test_support.h"

namespace firestore::index {
namespace {

using model::Document;
using model::FieldPath;
using model::Map;
using model::Value;
using testing::Field;
using testing::Path;
using testing::TestTenant;

// The entries of `doc` in database "db", after materializing the automatic
// indexes it needs the way a commit does.
std::vector<std::string> Entries(IndexCatalog& catalog, const Document& doc) {
  std::vector<AutoIndexKey> missing;
  ComputeIndexEntries(*catalog.Snapshot(), "db", doc, &missing);
  return ComputeIndexEntries(*catalog.MaterializeAutoIndexes(missing), "db",
                             doc);
}

// ---------------------------------------------------------------------------
// Layout

TEST(LayoutTest, TenantsOccupyDisjointRanges) {
  std::string a = EntityKey("db-a", Path("/c/doc"));
  std::string b = EntityKey("db-b", Path("/c/doc"));
  std::string prefix_a = EntityKeyPrefixForDatabase("db-a");
  EXPECT_TRUE(StartsWith(a, prefix_a));
  EXPECT_FALSE(StartsWith(b, prefix_a));
  EXPECT_LT(a, PrefixSuccessor(prefix_a));
}

TEST(LayoutTest, IndexRangesOrderedByIndexId) {
  std::string p1 = IndexKeyPrefix("db", 1);
  std::string p2 = IndexKeyPrefix("db", 2);
  EXPECT_LT(p1, p2);
  std::string entry = IndexEntryKey("db", 1, "vals", Path("/c/d"));
  EXPECT_TRUE(StartsWith(entry, p1));
  EXPECT_LT(entry, p2);
}

TEST(LayoutTest, CollectionPrefixCoversChildren) {
  std::string prefix =
      EntityKeyPrefixForCollection("db", Path("/restaurants"));
  EXPECT_TRUE(StartsWith(EntityKey("db", Path("/restaurants/one")), prefix));
  EXPECT_TRUE(StartsWith(
      EntityKey("db", Path("/restaurants/one/ratings/2")), prefix));
  EXPECT_FALSE(StartsWith(EntityKey("db", Path("/reviews/one")), prefix));
}

TEST(LayoutTest, ParseIndexEntryNameRoundTrip) {
  std::string values;
  codec::AppendValueAsc(values, Value::String("SF"));
  codec::AppendValueDesc(values, Value::Double(4.5));
  std::string key = IndexEntryKey("db", 7, values, Path("/restaurants/one"));
  std::string_view suffix;
  ASSERT_TRUE(IndexEntrySuffix(key, IndexKeyPrefix("db", 7), &suffix));
  model::ResourcePath name;
  std::string_view name_bytes;
  ASSERT_TRUE(ParseIndexEntryName(suffix, {false, true}, &name, &name_bytes));
  EXPECT_EQ(name.CanonicalString(), "/restaurants/one");
}

// The executor reads a candidate's Entities row at the database prefix plus
// the name bytes of its index key; the spliced key must be the EntityKey.
TEST(LayoutTest, IndexEntryNameBytesSpliceIntoEntityKey) {
  const std::string prefix = EntityKeyPrefixForDatabase("db");
  for (const char* path : {"/restaurants/one", "/restaurants/one/reviews/r2"}) {
    SCOPED_TRACE(path);
    IndexCatalog catalog;
    Document doc(Path(path), {});
    doc.SetField(Field("rating"), Value::Double(4.5));
    doc.SetField(Field("tags"),
                 Value::FromArray({Value::String("bbq"), Value::Integer(7)}));
    const std::vector<std::string> keys = Entries(catalog, doc);
    std::set<SegmentKind> kinds;
    int spliced = 0;
    std::shared_ptr<const CatalogSnapshot> snapshot = catalog.Snapshot();
    for (const auto& [id, def] : snapshot->indexes) {
      std::vector<bool> descending;
      for (const IndexSegment& segment : def.segments) {
        descending.push_back(segment.kind == SegmentKind::kDescending);
      }
      for (const std::string& key : keys) {
        std::string_view suffix;
        if (!IndexEntrySuffix(key, IndexKeyPrefix("db", def.index_id),
                              &suffix)) {
          continue;
        }
        model::ResourcePath name;
        std::string_view name_bytes;
        ASSERT_TRUE(ParseIndexEntryName(suffix, descending, &name,
                                        &name_bytes));
        EXPECT_EQ(name.CanonicalString(), path);
        EXPECT_EQ(prefix + std::string(name_bytes), EntityKey("db", name));
        kinds.insert(def.segments[0].kind);
        ++spliced;
      }
    }
    // asc + desc per field, plus one array-contains entry per element.
    EXPECT_EQ(spliced, 6);
    EXPECT_EQ(kinds, (std::set<SegmentKind>{SegmentKind::kAscending,
                                            SegmentKind::kDescending,
                                            SegmentKind::kArrayContains}));
  }
}

// ---------------------------------------------------------------------------
// Catalog

// Materializes one automatic index and returns its id (0 if exempted).
IndexId AutoIndex(IndexCatalog& catalog, const std::string& collection,
                  const std::string& field, SegmentKind kind) {
  return catalog.MaterializeAutoIndexes({{collection, Field(field), kind}})
      ->AutoIndexId(collection, field, kind);
}

TEST(CatalogTest, AutoIndexIsStableAndLazy) {
  IndexCatalog catalog;
  EXPECT_TRUE(catalog.Snapshot()->indexes.empty());
  IndexId a1 =
      AutoIndex(catalog, "restaurants", "city", SegmentKind::kAscending);
  IndexId a2 =
      AutoIndex(catalog, "restaurants", "city", SegmentKind::kAscending);
  ASSERT_NE(a1, 0);
  EXPECT_EQ(a1, a2);
  IndexId d =
      AutoIndex(catalog, "restaurants", "city", SegmentKind::kDescending);
  EXPECT_NE(a1, d);
  IndexId other =
      AutoIndex(catalog, "ratings", "city", SegmentKind::kAscending);
  EXPECT_NE(a1, other);
}

TEST(CatalogTest, ExemptionBlocksAutoIndex) {
  IndexCatalog catalog;
  EXPECT_TRUE(catalog.AddExemption("restaurants", Field("blob")).empty());
  EXPECT_TRUE(catalog.Snapshot()->IsExempted("restaurants", "blob"));
  EXPECT_EQ(
      AutoIndex(catalog, "restaurants", "blob", SegmentKind::kAscending), 0);
  // Other fields unaffected.
  EXPECT_NE(
      AutoIndex(catalog, "restaurants", "city", SegmentKind::kAscending), 0);
}

// An exemption marks the field's automatic indexes kRemoving in its own
// publish, so queries stop planning on them at once.
TEST(CatalogTest, ExemptionMarksAutoIndexesRemoving) {
  IndexCatalog catalog;
  IndexId asc =
      AutoIndex(catalog, "restaurants", "city", SegmentKind::kAscending);
  IndexId desc =
      AutoIndex(catalog, "restaurants", "city", SegmentKind::kDescending);
  ASSERT_EQ(catalog.Snapshot()->ActiveIndexes("restaurants").size(), 2u);
  const int64_t version = catalog.Snapshot()->version;
  EXPECT_EQ(catalog.AddExemption("restaurants", Field("city")),
            (std::vector<IndexId>{asc, desc}));
  std::shared_ptr<const CatalogSnapshot> after = catalog.Snapshot();
  EXPECT_EQ(after->version, version + 1);
  EXPECT_EQ(after->Find(asc)->state, IndexState::kRemoving);
  EXPECT_EQ(after->Find(desc)->state, IndexState::kRemoving);
  EXPECT_TRUE(after->ActiveIndexes("restaurants").empty());
}

TEST(CatalogTest, CompositeIndexLifecycle) {
  IndexCatalog catalog;
  auto id = catalog.AddCompositeIndex(
      "restaurants",
      {{Field("city"), SegmentKind::kAscending},
       {Field("avgRating"), SegmentKind::kDescending}},
      IndexState::kBackfilling);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(catalog.Snapshot()->ActiveIndexes("restaurants").empty());
  EXPECT_EQ(catalog.Snapshot()->MaintainedComposites("restaurants").size(),
            1u);
  ASSERT_TRUE(catalog.SetIndexState(*id, IndexState::kActive).ok());
  EXPECT_EQ(catalog.Snapshot()->ActiveIndexes("restaurants").size(), 1u);
  ASSERT_TRUE(catalog.RemoveIndex(*id).ok());
  EXPECT_TRUE(catalog.Snapshot()->indexes.empty());
}

// A snapshot is immutable: a change publishes a new one and leaves the view
// an in-flight request took as it was.
TEST(CatalogTest, SnapshotKeepsItsViewAcrossChanges) {
  IndexCatalog catalog;
  auto first = catalog.AddCompositeIndex(
      "r", {{Field("a"), SegmentKind::kAscending}}, IndexState::kActive);
  ASSERT_TRUE(first.ok());
  std::shared_ptr<const CatalogSnapshot> before = catalog.Snapshot();
  auto second = catalog.AddCompositeIndex(
      "r", {{Field("b"), SegmentKind::kAscending}}, IndexState::kBackfilling);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(catalog.AddExemption("r", Field("c")).empty());
  ASSERT_TRUE(catalog.SetIndexState(*first, IndexState::kRemoving).ok());

  std::vector<const IndexDefinition*> maintained =
      before->MaintainedComposites("r");
  ASSERT_EQ(maintained.size(), 1u);
  EXPECT_EQ(maintained[0]->index_id, *first);
  EXPECT_EQ(maintained[0]->state, IndexState::kActive);
  EXPECT_EQ(before->Find(*second), nullptr);
  EXPECT_FALSE(before->IsExempted("r", "c"));

  std::shared_ptr<const CatalogSnapshot> after = catalog.Snapshot();
  EXPECT_EQ(after->MaintainedComposites("r").size(), 2u);
  EXPECT_EQ(after->Find(*first)->state, IndexState::kRemoving);
  EXPECT_TRUE(after->IsExempted("r", "c"));
  EXPECT_EQ(after->version, before->version + 3);
}

TEST(CatalogTest, DuplicateCompositeRejected) {
  IndexCatalog catalog;
  std::vector<IndexSegment> segments = {
      {Field("city"), SegmentKind::kAscending}};
  ASSERT_TRUE(catalog.AddCompositeIndex("r", segments, IndexState::kActive)
                  .ok());
  EXPECT_EQ(catalog.AddCompositeIndex("r", segments, IndexState::kActive)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, ArrayContainsOnlySingleField) {
  IndexCatalog catalog;
  EXPECT_EQ(catalog
                .AddCompositeIndex(
                    "r",
                    {{Field("tags"), SegmentKind::kArrayContains},
                     {Field("city"), SegmentKind::kAscending}},
                    IndexState::kActive)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Extraction

Document RestaurantDoc() {
  Map fields;
  fields["name"] = Value::String("Zola");
  fields["city"] = Value::String("SF");
  fields["avgRating"] = Value::Double(4.5);
  return Document(Path("/restaurants/one"), std::move(fields));
}

TEST(ExtractorTest, FlattenNestedMaps) {
  Document doc(Path("/c/d"), {});
  doc.SetField(Field("a"), Value::Integer(1));
  doc.SetField(Field("m.x"), Value::Integer(2));
  doc.SetField(Field("m.y.z"), Value::Integer(3));
  auto leaves = FlattenDocument(doc);
  std::set<std::string> fields;
  for (const auto& leaf : leaves) fields.insert(leaf.field.CanonicalString());
  // a, m (whole map), m.x, m.y (nested map), m.y.z
  EXPECT_EQ(fields, (std::set<std::string>{"a", "m", "m.x", "m.y", "m.y.z"}));
}

TEST(ExtractorTest, TwoEntriesPerScalarField) {
  IndexCatalog catalog;
  Document doc = RestaurantDoc();  // 3 scalar fields
  auto keys = Entries(catalog, doc);
  EXPECT_EQ(keys.size(), 6u);  // asc + desc each
}

TEST(ExtractorTest, ArrayProducesContainsEntries) {
  IndexCatalog catalog;
  Document doc(Path("/c/d"), {});
  doc.SetField(Field("tags"),
               Value::FromArray({Value::String("bbq"), Value::String("tex"),
                                 Value::String("bbq")}));
  auto keys = Entries(catalog, doc);
  // asc + desc on the whole array, plus 2 distinct contains entries
  // (duplicate elements dedupe to one key).
  EXPECT_EQ(keys.size(), 4u);
}

TEST(ExtractorTest, ExemptedFieldProducesNoEntries) {
  IndexCatalog catalog;
  catalog.AddExemption("c", Field("payload"));
  Document doc(Path("/c/d"), {});
  doc.SetField(Field("payload"), Value::String("big"));
  doc.SetField(Field("kept"), Value::Integer(1));
  auto keys = Entries(catalog, doc);
  EXPECT_EQ(keys.size(), 2u);  // only `kept` asc+desc
}

TEST(ExtractorTest, CompositeEntryRequiresAllFields) {
  IndexCatalog catalog;
  auto id = catalog.AddCompositeIndex(
      "restaurants",
      {{Field("city"), SegmentKind::kAscending},
       {Field("avgRating"), SegmentKind::kDescending}},
      IndexState::kActive);
  ASSERT_TRUE(id.ok());
  std::shared_ptr<const CatalogSnapshot> snapshot = catalog.Snapshot();
  const IndexDefinition* def = snapshot->Find(*id);
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(ComputeEntriesForIndex(*def, "db", RestaurantDoc()).size(), 1u);
  Document missing(Path("/restaurants/two"),
                   {{"city", Value::String("SF")}});
  EXPECT_TRUE(ComputeEntriesForIndex(*def, "db", missing).empty());
  Document wrong_collection(Path("/reviews/a"),
                            {{"city", Value::String("SF")},
                             {"avgRating", Value::Double(1)}});
  EXPECT_TRUE(ComputeEntriesForIndex(*def, "db", wrong_collection).empty());
}

// ComputeIndexEntries encodes the database prefix and the document name
// once per document; every key must still equal IndexEntryKey's, built
// entry by entry from FlattenDocument's leaves and the catalog.
TEST(ExtractorTest, EntriesMatchIndexEntryKeyByteForByte) {
  IndexCatalog catalog;
  ASSERT_TRUE(catalog
                  .AddCompositeIndex(
                      "restaurants",
                      {{Field("city"), SegmentKind::kAscending},
                       {Field("stats.rating"), SegmentKind::kDescending}},
                      IndexState::kActive)
                  .ok());
  catalog.AddExemption("restaurants", Field("stats.blob"));
  const Value city = Value::String(std::string("S\0F", 3));
  Document doc(Path("/chains/c1/restaurants/one"), {});
  doc.SetField(Field("city"), city);
  doc.SetField(Field("stats.rating"), Value::Double(4.5));
  doc.SetField(Field("stats.blob"), Value::String("skipped"));
  doc.SetField(Field("stats.deep.n"), Value::Integer(-7));
  doc.SetField(Field("tags"),
               Value::FromArray({Value::String("bbq"), Value::Integer(3),
                                 Value::FromArray({Value::Boolean(true)})}));
  doc.SetField(Field("stats.deep.list"),
               Value::FromArray({Value::String("x"), Value::String("x")}));
  Entries(catalog, doc);  // materializes the automatic indexes
  std::shared_ptr<const CatalogSnapshot> snapshot = catalog.Snapshot();

  auto old_way = [&](std::string_view db) {
    std::set<std::string> keys;
    for (const IndexableLeaf& leaf : FlattenDocument(doc)) {
      const std::string field = leaf.field.CanonicalString();
      if (snapshot->IsExempted("restaurants", field)) continue;
      for (SegmentKind kind :
           {SegmentKind::kAscending, SegmentKind::kDescending}) {
        const IndexId id = snapshot->AutoIndexId("restaurants", field, kind);
        EXPECT_NE(id, 0) << field;
        std::string values;
        if (kind == SegmentKind::kAscending) {
          codec::AppendValueAsc(values, leaf.value);
        } else {
          codec::AppendValueDesc(values, leaf.value);
        }
        keys.insert(IndexEntryKey(db, id, values, doc.name()));
      }
      if (leaf.value.type() != model::ValueType::kArray) continue;
      const IndexId id = snapshot->AutoIndexId("restaurants", field,
                                               SegmentKind::kArrayContains);
      EXPECT_NE(id, 0) << field;
      for (const Value& element : leaf.value.array_value()) {
        std::string values;
        codec::AppendValueAsc(values, element);
        keys.insert(IndexEntryKey(db, id, values, doc.name()));
      }
    }
    for (const IndexDefinition* def :
         snapshot->MaintainedComposites("restaurants")) {
      std::string values;
      codec::AppendValueAsc(values, city);
      codec::AppendValueDesc(values, Value::Double(4.5));
      keys.insert(IndexEntryKey(db, def->index_id, values, doc.name()));
    }
    return std::vector<std::string>(keys.begin(), keys.end());
  };

  // A plain database id, and one whose encoding escapes a 0x00 byte.
  for (const std::string& db : {std::string("db"),
                               std::string("data\0base-zz", 13)}) {
    const std::vector<std::string> got =
        ComputeIndexEntries(*snapshot, db, doc);
    EXPECT_EQ(got, old_way(db));
    // city, stats, stats.rating, stats.deep, stats.deep.n, stats.deep.list
    // and tags, asc + desc; 3 + 1 array-contains; 1 composite.
    EXPECT_EQ(got.size(), 7u * 2 + 4 + 1);
  }
}

// ---------------------------------------------------------------------------
// Index consistency through the write path (DESIGN.md invariant 2)

// Recomputes the expected IndexEntries contents from the Entities table and
// compares with the actual rows.
void CheckIndexConsistency(TestTenant& t) {
  auto entities = t.spanner().SnapshotScan(
      kEntitiesTable, "", "", t.spanner().StrongReadTimestamp());
  ASSERT_TRUE(entities.ok());
  std::set<std::string> expected;
  std::shared_ptr<const CatalogSnapshot> catalog = t.catalog().Snapshot();
  for (const auto& row : *entities) {
    auto doc = codec::ParseDocument(row.value);
    ASSERT_TRUE(doc.ok());
    for (const std::string& key :
         ComputeIndexEntries(*catalog, t.id(), *doc)) {
      expected.insert(key);
    }
  }
  auto entries = t.spanner().SnapshotScan(
      kIndexEntriesTable, "", "", t.spanner().StrongReadTimestamp());
  ASSERT_TRUE(entries.ok());
  std::set<std::string> actual;
  for (const auto& row : *entries) actual.insert(row.key);
  EXPECT_EQ(expected, actual);
}

TEST(IndexConsistencyTest, InsertsUpdatesDeletes) {
  TestTenant t;
  t.Put("/restaurants/one", {{"city", Value::String("SF")},
                             {"avgRating", Value::Double(4.5)}});
  t.Put("/restaurants/two", {{"city", Value::String("NYC")},
                             {"type", Value::String("BBQ")}});
  CheckIndexConsistency(t);
  // Update changes values and drops a field.
  t.Put("/restaurants/one", {{"city", Value::String("LA")}});
  CheckIndexConsistency(t);
  t.Delete("/restaurants/two");
  CheckIndexConsistency(t);
}

TEST(IndexConsistencyTest, RandomizedWorkload) {
  TestTenant t;
  Rng rng(99);
  std::vector<std::string> cities = {"SF", "NYC", "LA", "SEA"};
  for (int i = 0; i < 120; ++i) {
    std::string path = "/restaurants/r" + std::to_string(rng.Uniform(0, 15));
    int action = static_cast<int>(rng.Uniform(0, 9));
    if (action == 0) {
      auto get = t.reader().GetDocument(t.id(), Path(path));
      ASSERT_TRUE(get.ok());
      if (get->has_value()) t.Delete(path);
    } else {
      Map fields;
      fields["city"] = Value::String(cities[rng.Uniform(0, 3)]);
      if (rng.Bernoulli(0.5)) {
        fields["avgRating"] = Value::Double(rng.NextDouble() * 5);
      }
      if (rng.Bernoulli(0.3)) {
        fields["tags"] = Value::FromArray(
            {Value::String("a"), Value::String("b")});
      }
      t.Put(path, std::move(fields));
    }
  }
  CheckIndexConsistency(t);
}

// ---------------------------------------------------------------------------
// Backfill / backremoval

// Enough documents for a backfill or a removal to span three batches.
constexpr int kBatchesDocs = 2 * spanner::kBatchRows + 1;

TEST(BackfillTest, CreateIndexBackfillsExistingDocuments) {
  TestTenant t;
  for (int i = 0; i < kBatchesDocs; ++i) {
    t.Put("/restaurants/r" + std::to_string(i),
          {{"city", Value::String(i % 2 == 0 ? "SF" : "NYC")},
           {"avgRating", Value::Double(i)}});
  }
  auto id = t.backfill().CreateIndex(
      t.catalog(), t.id(), "restaurants",
      {{Field("city"), SegmentKind::kAscending},
       {Field("avgRating"), SegmentKind::kDescending}});
  ASSERT_TRUE(id.ok());
  std::shared_ptr<const CatalogSnapshot> snapshot = t.catalog().Snapshot();
  const IndexDefinition* def = snapshot->Find(*id);
  ASSERT_NE(def, nullptr);
  EXPECT_EQ(def->state, IndexState::kActive);
  EXPECT_EQ(t.CountRows(kIndexEntriesTable, IndexKeyPrefix(t.id(), *id)),
            kBatchesDocs);
  CheckIndexConsistency(t);
}

TEST(BackfillTest, WritesDuringBackfillStayConformant) {
  TestTenant t;
  t.Put("/restaurants/r1", {{"city", Value::String("SF")},
                            {"avgRating", Value::Double(3)}});
  // Register the index in kBackfilling state; a write arriving before the
  // backfill runs must already maintain it.
  auto id = t.catalog().AddCompositeIndex(
      "restaurants",
      {{Field("city"), SegmentKind::kAscending},
       {Field("avgRating"), SegmentKind::kDescending}},
      IndexState::kBackfilling);
  ASSERT_TRUE(id.ok());
  t.Put("/restaurants/r2", {{"city", Value::String("LA")},
                            {"avgRating", Value::Double(4)}});
  EXPECT_EQ(t.CountRows(kIndexEntriesTable, IndexKeyPrefix(t.id(), *id)), 1);
  // Updates and deletes of already-conformant rows also stay conformant.
  t.Put("/restaurants/r2", {{"city", Value::String("SEA")},
                            {"avgRating", Value::Double(5)}});
  EXPECT_EQ(t.CountRows(kIndexEntriesTable, IndexKeyPrefix(t.id(), *id)), 1);
  t.Delete("/restaurants/r2");
  EXPECT_EQ(t.CountRows(kIndexEntriesTable, IndexKeyPrefix(t.id(), *id)), 0);
}

// A query reading below the timestamp an index became whole at must not
// plan on it: the backfill wrote the older documents' entries after it.
TEST(BackfillTest, QueryBelowActivationSkipsNewIndex) {
  TestTenant t;
  spanner::Timestamp ts = 0;
  for (int i = 0; i < 6; ++i) {
    ts = t.Put("/r/d" + std::to_string(i), {{"a", Value::Integer(i % 2)},
                                            {"b", Value::Integer(i % 3)}});
  }
  query::Query q(model::ResourcePath(), "r");
  q.Where(Field("a"), query::Operator::kEqual, Value::Integer(0))
      .Where(Field("b"), query::Operator::kEqual, Value::Integer(0));
  auto before = t.Run(q, ts);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_EQ(before->result.documents.size(), 1u);
  EXPECT_EQ(before->plan_description.rfind("zigzag-join(", 0), 0u);

  auto id = t.backfill().CreateIndex(t.catalog(), t.id(), "r",
                                     {{Field("a"), SegmentKind::kAscending},
                                      {Field("b"), SegmentKind::kAscending}});
  ASSERT_TRUE(id.ok());
  auto at_ts = t.Run(q, ts);
  ASSERT_TRUE(at_ts.ok()) << at_ts.status();
  ASSERT_EQ(at_ts->result.documents.size(), 1u);
  EXPECT_EQ(at_ts->result.documents[0].name().CanonicalString(), "/r/d0");
  EXPECT_EQ(at_ts->plan_description, before->plan_description);

  // A strong read after the backfill plans on the new index.
  auto strong = t.Run(q);
  ASSERT_TRUE(strong.ok()) << strong.status();
  ASSERT_EQ(strong->result.documents.size(), 1u);
  EXPECT_EQ(strong->plan_description.rfind("index#" + std::to_string(*id), 0),
            0u);
}

// A commit takes one catalog snapshot; on a warm catalog it publishes none.
TEST(CatalogTest, WarmCommitPublishesNoSnapshot) {
  TestTenant t;
  t.Put("/r/one", {{"a", Value::Integer(1)}, {"tags", Value::FromArray({})}});
  std::shared_ptr<const CatalogSnapshot> warm = t.catalog().Snapshot();
  t.Put("/r/one", {{"a", Value::Integer(2)},
                   {"tags", Value::FromArray({Value::Integer(1)})}});
  t.Put("/r/two", {{"a", Value::Integer(3)}});
  t.Delete("/r/one");
  EXPECT_EQ(t.catalog().Snapshot(), warm);
}

// A document with new fields materializes all their automatic indexes with
// one publication, allocating ids per field in document order, ascending
// before descending.
TEST(CatalogTest, NewFieldsPublishOneSnapshot) {
  TestTenant t;
  t.Put("/r/one", {{"a", Value::Integer(1)}});
  std::shared_ptr<const CatalogSnapshot> before = t.catalog().Snapshot();
  t.Put("/r/two", {{"a", Value::Integer(2)},
                   {"b", Value::Integer(2)},
                   {"c", Value::Integer(2)},
                   {"d", Value::Integer(2)}});
  std::shared_ptr<const CatalogSnapshot> after = t.catalog().Snapshot();
  EXPECT_EQ(after->version, before->version + 1);
  IndexId next = before->next_id;
  for (const char* field : {"b", "c", "d"}) {
    EXPECT_EQ(after->AutoIndexId("r", field, SegmentKind::kAscending), next++);
    EXPECT_EQ(after->AutoIndexId("r", field, SegmentKind::kDescending),
              next++);
  }
  EXPECT_EQ(after->next_id, next);
}

TEST(BackfillTest, DropIndexRemovesEntries) {
  TestTenant t;
  for (int i = 0; i < kBatchesDocs; ++i) {
    t.Put("/r/r" + std::to_string(i), {{"a", Value::Integer(i)},
                                       {"b", Value::Integer(i)}});
  }
  auto id = t.backfill().CreateIndex(
      t.catalog(), t.id(), "r",
      {{Field("a"), SegmentKind::kAscending},
       {Field("b"), SegmentKind::kAscending}});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(t.CountRows(kIndexEntriesTable, IndexKeyPrefix(t.id(), *id)),
            kBatchesDocs);
  ASSERT_TRUE(t.backfill().DropIndex(t.catalog(), t.id(), *id).ok());
  EXPECT_EQ(t.CountRows(kIndexEntriesTable, IndexKeyPrefix(t.id(), *id)), 0);
  EXPECT_EQ(t.catalog().Snapshot()->Find(*id), nullptr);
  CheckIndexConsistency(t);
}

TEST(BackfillTest, ExemptionRemovesExistingAutoEntries) {
  TestTenant t;
  t.Put("/r/one", {{"big", Value::String("x")}, {"keep", Value::Integer(1)}});
  std::vector<IndexId> ids;
  for (SegmentKind kind : {SegmentKind::kAscending, SegmentKind::kDescending,
                           SegmentKind::kArrayContains}) {
    IndexId id = t.catalog().Snapshot()->AutoIndexId("r", "big", kind);
    if (id != 0) ids.push_back(id);
  }
  ASSERT_EQ(ids.size(), 2u);  // asc + desc were materialized by the write
  ASSERT_TRUE(
      t.backfill().ExemptField(t.catalog(), t.id(), "r", Field("big")).ok());
  EXPECT_TRUE(t.catalog().Snapshot()->IsExempted("r", "big"));
  for (IndexId id : ids) {
    EXPECT_EQ(t.CountRows(kIndexEntriesTable, IndexKeyPrefix(t.id(), id)),
              0);
  }
  // Subsequent writes make no entries for the exempted field.
  t.Put("/r/two", {{"big", Value::String("y")}});
  CheckIndexConsistency(t);
}

// A backfill failing after some batches committed removes their entries
// with the definition.
TEST(BackfillTest, FailedBackfillRollsBackItsEntries) {
  TestTenant t;
  for (int i = 0; i < spanner::kBatchRows + 1; ++i) {
    t.Put("/r/r" + std::to_string(i), {{"a", Value::Integer(i)},
                                       {"b", Value::Integer(i)}});
  }
  const IndexId id = t.catalog().Snapshot()->next_id;
  FaultConfig config;
  config.skip_first = 1;  // the first batch commits
  config.max_fires = 1;
  config.action = FaultAction::Fail(UnavailableError("scan failed"));
  ScopedFault fault("spanner.txn.scan", config);
  auto created = t.backfill().CreateIndex(
      t.catalog(), t.id(), "r",
      {{Field("a"), SegmentKind::kAscending},
       {Field("b"), SegmentKind::kAscending}});
  EXPECT_EQ(created.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(t.CountRows(kIndexEntriesTable, IndexKeyPrefix(t.id(), id)), 0);
  EXPECT_EQ(t.catalog().Snapshot()->Find(id), nullptr);
  CheckIndexConsistency(t);
}

// A backfill batch that waits on a committing writer's lock indexes the
// version that writer committed, even when the writer's catalog snapshot
// predates the index and so wrote no entry for it.
TEST(BackfillTest, BackfillIndexesWhatARacingCommitWrote) {
  TestTenant t;
  t.Put("/r/d", {{"a", Value::Integer(1)}, {"b", Value::Integer(1)}});
  const Document updated(Path("/r/d"),
                         {{"a", Value::Integer(2)}, {"b", Value::Integer(2)}});
  // The racing writer: it holds the document's exclusive lock and writes
  // the new value without an entry for the index being built.
  auto writer = t.spanner().BeginTransaction();
  const std::string key = EntityKey(t.id(), updated.name());
  ASSERT_TRUE(
      writer->Read(kEntitiesTable, key, spanner::LockMode::kExclusive).ok());
  writer->Put(kEntitiesTable, key, codec::SerializeDocument(updated));

  const auto& waits = MetricRegistry::Global().GetCounter("spanner.lock.waits");
  const int64_t waits_before = waits.value();
  StatusOr<IndexId> id = InternalError("not run");
  std::thread admin([&] {
    id = t.backfill().CreateIndex(t.catalog(), t.id(), "r",
                                  {{Field("a"), SegmentKind::kAscending},
                                   {Field("b"), SegmentKind::kAscending}});
  });
  while (waits.value() == waits_before) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(writer->Commit().ok());
  admin.join();
  ASSERT_TRUE(id.ok()) << id.status();

  auto entries = t.spanner().SnapshotScan(
      kIndexEntriesTable, IndexKeyPrefix(t.id(), *id),
      PrefixSuccessor(IndexKeyPrefix(t.id(), *id)),
      t.spanner().StrongReadTimestamp());
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ(
      std::vector<std::string>{(*entries)[0].key},
      ComputeEntriesForIndex(*t.catalog().Snapshot()->Find(*id), t.id(),
                             updated));
}

}  // namespace
}  // namespace firestore::index
