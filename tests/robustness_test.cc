// Robustness and hardening tests: adversarial decode inputs must fail
// cleanly (never crash or over-read), MVCC garbage collection must preserve
// in-retention snapshots, and shared components must tolerate concurrency.

#include <gtest/gtest.h>

#include <thread>

#include "client/local_store.h"
#include "common/random.h"
#include "firestore/codec/document_codec.h"
#include "firestore/codec/ordered_code.h"
#include "firestore/codec/value_codec.h"
#include "firestore/index/catalog.h"
#include "firestore/rules/rules.h"
#include "tests/test_support.h"

namespace firestore {
namespace {

using model::Value;
using testing::Field;
using testing::Path;

// ---------------------------------------------------------------------------
// Decode fuzzing: random bytes through every parser.

class DecodeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecodeFuzzTest, RandomBytesNeverCrashParsers) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 2000; ++iter) {
    size_t len = static_cast<size_t>(rng.Uniform(0, 40));
    std::string bytes;
    bytes.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Uniform(0, 255)));
    }
    {
      std::string_view view = bytes;
      Value out;
      (void)codec::ParseValueAsc(&view, &out);
    }
    {
      std::string_view view = bytes;
      Value out;
      (void)codec::ParseValueDesc(&view, &out);
    }
    {
      std::string_view view = bytes;
      model::ResourcePath out;
      (void)codec::ParseResourcePath(&view, &out);
    }
    {
      std::string_view view = bytes;
      std::string out;
      (void)codec::ParseBytes(&view, &out);
    }
    (void)codec::ParseDocument(bytes);
    (void)backend::TriggerEvent::Parse(bytes);
    (void)client::LocalStore::Parse(bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeFuzzTest, ::testing::Values(1, 2, 3));

// Mutated valid encodings: flip bytes in real payloads; parsers must either
// reject or produce *some* value, never crash, and checksummed formats must
// reject.
TEST(DecodeFuzzTest, BitFlippedDocumentsHandled) {
  Rng rng(9);
  model::Document doc(Path("/c/d"), {});
  doc.SetField(Field("a"), Value::Integer(42));
  doc.SetField(Field("b"), Value::String("hello world"));
  doc.SetField(Field("c"),
               Value::FromArray({Value::Double(1.5), Value::Null()}));
  std::string bytes = codec::SerializeDocument(doc);
  for (int iter = 0; iter < 500; ++iter) {
    std::string mutated = bytes;
    size_t pos = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(mutated.size()) - 1));
    mutated[pos] ^= static_cast<char>(1 << rng.Uniform(0, 7));
    (void)codec::ParseDocument(mutated);  // must not crash
  }
}

// ---------------------------------------------------------------------------
// GC vs snapshot consistency.

class GcPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GcPropertyTest, ReadsAtOrAfterHorizonUnaffectedByGc) {
  ManualClock clock(1'000'000);
  spanner::Database db(&clock);
  ASSERT_TRUE(db.CreateTable("T").ok());
  Rng rng(GetParam());
  // Random history over a few keys, remembering some snapshots.
  struct Snap {
    spanner::Timestamp ts;
    std::map<std::string, std::string> state;
  };
  std::vector<Snap> snaps;
  std::map<std::string, std::string> current;
  for (int step = 0; step < 150; ++step) {
    clock.AdvanceBy(rng.Uniform(1, 1000));
    std::string key = "k" + std::to_string(rng.Uniform(0, 5));
    auto txn = db.BeginTransaction();
    if (rng.Bernoulli(0.2)) {
      txn->Delete("T", key);
      current.erase(key);
    } else {
      std::string value = "v" + std::to_string(step);
      txn->Put("T", key, value);
      current[key] = value;
    }
    auto result = txn->Commit();
    ASSERT_TRUE(result.ok());
    if (rng.Bernoulli(0.2)) {
      snaps.push_back({result->commit_ts, current});
    }
  }
  // GC at a random horizon; snapshots at or after it must read identically.
  ASSERT_GT(snaps.size(), 2u);
  size_t cut = snaps.size() / 2;
  spanner::Timestamp horizon = snaps[cut].ts;
  db.GarbageCollect(horizon);
  for (size_t i = cut; i < snaps.size(); ++i) {
    for (const char* k : {"k0", "k1", "k2", "k3", "k4", "k5"}) {
      auto row = db.SnapshotRead("T", k, snaps[i].ts);
      ASSERT_TRUE(row.ok());
      auto expected = snaps[i].state.find(k);
      if (expected == snaps[i].state.end()) {
        EXPECT_FALSE(row->has_value()) << k << " at " << snaps[i].ts;
      } else {
        ASSERT_TRUE(row->has_value()) << k << " at " << snaps[i].ts;
        EXPECT_EQ(**row, expected->second);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// Catalog concurrency: lazy auto-index materialization must be race-free.

TEST(CatalogConcurrencyTest, ParallelAutoIndexGetsOneStableId) {
  index::IndexCatalog catalog;
  constexpr int kThreads = 8;
  std::vector<index::IndexId> ids(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        ids[t] = catalog
                     .MaterializeAutoIndexes({{"col", Field("field"),
                                               index::SegmentKind::kAscending}})
                     ->AutoIndexId("col", "field",
                                   index::SegmentKind::kAscending);
        FS_CHECK(ids[t] != 0);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(ids[t], ids[0]);
  // Exactly one asc index exists.
  int asc_count = 0;
  std::shared_ptr<const index::CatalogSnapshot> snapshot = catalog.Snapshot();
  for (const auto& [id, def] : snapshot->indexes) {
    if (def.automatic &&
        def.segments[0].kind == index::SegmentKind::kAscending) {
      ++asc_count;
    }
  }
  EXPECT_EQ(asc_count, 1);
}

// ---------------------------------------------------------------------------
// Rules parser fuzz: garbage sources never crash, only error.

class RulesFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RulesFuzzTest, RandomSourcesNeverCrashParser) {
  Rng rng(GetParam());
  const std::string alphabet =
      "match allow read write if (){}/.;:=<>!&|'\"abc123 \n\t$*,";
  for (int iter = 0; iter < 500; ++iter) {
    size_t len = static_cast<size_t>(rng.Uniform(0, 120));
    std::string source;
    for (size_t i = 0; i < len; ++i) {
      source.push_back(
          alphabet[static_cast<size_t>(rng.Uniform(
              0, static_cast<int64_t>(alphabet.size()) - 1))]);
    }
    (void)rules::RuleSet::Parse(source);  // must not crash
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RulesFuzzTest, ::testing::Values(5, 6));

}  // namespace
}  // namespace firestore
