#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "firestore/codec/document_codec.h"
#include "firestore/codec/value_codec.h"
#include "firestore/index/backfill.h"
#include "firestore/index/catalog.h"
#include "firestore/index/extractor.h"
#include "firestore/index/layout.h"
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
    const std::vector<std::string> keys =
        ComputeIndexEntries(catalog, "db", doc);
    std::set<SegmentKind> kinds;
    int spliced = 0;
    for (const IndexDefinition& def : catalog.AllIndexes()) {
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

TEST(CatalogTest, AutoIndexIsStableAndLazy) {
  IndexCatalog catalog;
  auto a1 = catalog.AutoIndex("restaurants", Field("city"),
                              SegmentKind::kAscending);
  auto a2 = catalog.AutoIndex("restaurants", Field("city"),
                              SegmentKind::kAscending);
  ASSERT_TRUE(a1.has_value());
  EXPECT_EQ(a1->index_id, a2->index_id);
  auto d = catalog.AutoIndex("restaurants", Field("city"),
                             SegmentKind::kDescending);
  EXPECT_NE(a1->index_id, d->index_id);
  auto other = catalog.AutoIndex("ratings", Field("city"),
                                 SegmentKind::kAscending);
  EXPECT_NE(a1->index_id, other->index_id);
}

TEST(CatalogTest, ExemptionBlocksAutoIndex) {
  IndexCatalog catalog;
  catalog.AddExemption("restaurants", Field("blob"));
  EXPECT_TRUE(catalog.IsExempted("restaurants", Field("blob")));
  EXPECT_FALSE(catalog
                   .AutoIndex("restaurants", Field("blob"),
                              SegmentKind::kAscending)
                   .has_value());
  // Other fields unaffected.
  EXPECT_TRUE(catalog
                  .AutoIndex("restaurants", Field("city"),
                             SegmentKind::kAscending)
                  .has_value());
}

TEST(CatalogTest, CompositeIndexLifecycle) {
  IndexCatalog catalog;
  auto id = catalog.AddCompositeIndex(
      "restaurants",
      {{Field("city"), SegmentKind::kAscending},
       {Field("avgRating"), SegmentKind::kDescending}},
      IndexState::kBackfilling);
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(catalog.ActiveIndexes("restaurants").empty());
  EXPECT_EQ(catalog.MaintainedIndexes("restaurants").size(), 1u);
  ASSERT_TRUE(catalog.SetIndexState(*id, IndexState::kActive).ok());
  EXPECT_EQ(catalog.ActiveIndexes("restaurants").size(), 1u);
  ASSERT_TRUE(catalog.RemoveIndex(*id).ok());
  EXPECT_TRUE(catalog.AllIndexes().empty());
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
  auto keys = ComputeIndexEntries(catalog, "db", doc);
  EXPECT_EQ(keys.size(), 6u);  // asc + desc each
}

TEST(ExtractorTest, ArrayProducesContainsEntries) {
  IndexCatalog catalog;
  Document doc(Path("/c/d"), {});
  doc.SetField(Field("tags"),
               Value::FromArray({Value::String("bbq"), Value::String("tex"),
                                 Value::String("bbq")}));
  auto keys = ComputeIndexEntries(catalog, "db", doc);
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
  auto keys = ComputeIndexEntries(catalog, "db", doc);
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
  auto def = catalog.GetIndex(*id);
  EXPECT_EQ(ComputeEntriesForIndex(*def, "db", RestaurantDoc()).size(), 1u);
  Document missing(Path("/restaurants/two"),
                   {{"city", Value::String("SF")}});
  EXPECT_TRUE(ComputeEntriesForIndex(*def, "db", missing).empty());
  Document wrong_collection(Path("/reviews/a"),
                            {{"city", Value::String("SF")},
                             {"avgRating", Value::Double(1)}});
  EXPECT_TRUE(ComputeEntriesForIndex(*def, "db", wrong_collection).empty());
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
  for (const auto& row : *entities) {
    auto doc = codec::ParseDocument(row.value);
    ASSERT_TRUE(doc.ok());
    for (const std::string& key :
         ComputeIndexEntries(t.catalog(), t.id(), *doc)) {
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

TEST(BackfillTest, CreateIndexBackfillsExistingDocuments) {
  TestTenant t;
  for (int i = 0; i < 10; ++i) {
    t.Put("/restaurants/r" + std::to_string(i),
          {{"city", Value::String(i % 2 == 0 ? "SF" : "NYC")},
           {"avgRating", Value::Double(i)}});
  }
  auto id = t.backfill().CreateIndex(
      t.catalog(), t.id(), "restaurants",
      {{Field("city"), SegmentKind::kAscending},
       {Field("avgRating"), SegmentKind::kDescending}},
      /*batch_size=*/3);
  ASSERT_TRUE(id.ok());
  auto def = t.catalog().GetIndex(*id);
  ASSERT_TRUE(def.has_value());
  EXPECT_EQ(def->state, IndexState::kActive);
  EXPECT_EQ(t.CountRows(kIndexEntriesTable, IndexKeyPrefix(t.id(), *id)),
            10);
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

TEST(BackfillTest, DropIndexRemovesEntries) {
  TestTenant t;
  for (int i = 0; i < 5; ++i) {
    t.Put("/r/r" + std::to_string(i), {{"a", Value::Integer(i)},
                                       {"b", Value::Integer(i)}});
  }
  auto id = t.backfill().CreateIndex(
      t.catalog(), t.id(), "r",
      {{Field("a"), SegmentKind::kAscending},
       {Field("b"), SegmentKind::kAscending}},
      2);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(t.CountRows(kIndexEntriesTable, IndexKeyPrefix(t.id(), *id)), 5);
  ASSERT_TRUE(t.backfill().DropIndex(t.catalog(), t.id(), *id, 2).ok());
  EXPECT_EQ(t.CountRows(kIndexEntriesTable, IndexKeyPrefix(t.id(), *id)), 0);
  EXPECT_FALSE(t.catalog().GetIndex(*id).has_value());
  CheckIndexConsistency(t);
}

TEST(BackfillTest, ExemptionRemovesExistingAutoEntries) {
  TestTenant t;
  t.Put("/r/one", {{"big", Value::String("x")}, {"keep", Value::Integer(1)}});
  auto ids = t.catalog().ExistingAutoIndexIds("r", Field("big"));
  ASSERT_EQ(ids.size(), 2u);  // asc + desc were materialized by the write
  t.catalog().AddExemption("r", Field("big"));
  ASSERT_TRUE(t.backfill()
                  .RemoveExemptedFieldEntries(t.catalog(), t.id(), "r",
                                              Field("big"))
                  .ok());
  for (IndexId id : ids) {
    EXPECT_EQ(t.CountRows(kIndexEntriesTable, IndexKeyPrefix(t.id(), id)),
              0);
  }
  // Subsequent writes make no entries for the exempted field.
  t.Put("/r/two", {{"big", Value::String("y")}});
  CheckIndexConsistency(t);
}

}  // namespace
}  // namespace firestore::index
