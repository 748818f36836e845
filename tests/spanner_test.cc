#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/random.h"
#include "spanner/database.h"

namespace firestore::spanner {
namespace {

class SpannerTest : public ::testing::Test {
 protected:
  SpannerTest() : clock_(1'000'000), db_(&clock_) {
    FS_CHECK_OK(db_.CreateTable("T"));
  }

  // Commits a single put and returns its timestamp.
  Timestamp Put(const std::string& key, const std::string& value) {
    auto txn = db_.BeginTransaction();
    txn->Put("T", key, value);
    auto result = txn->Commit();
    FS_CHECK(result.ok());
    return result->commit_ts;
  }

  ManualClock clock_;
  Database db_;
};

// ---------------------------------------------------------------------------
// Basic storage + MVCC

TEST_F(SpannerTest, PutThenSnapshotRead) {
  Timestamp ts = Put("k", "v1");
  auto v = db_.SnapshotRead("T", "k", ts);
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->has_value());
  EXPECT_EQ(**v, "v1");
}

TEST_F(SpannerTest, SnapshotReadBeforeWriteSeesNothing) {
  Timestamp ts = Put("k", "v1");
  auto v = db_.SnapshotRead("T", "k", ts - 1);
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->has_value());
}

TEST_F(SpannerTest, MultipleVersionsReadAtTimestamps) {
  Timestamp t1 = Put("k", "v1");
  Timestamp t2 = Put("k", "v2");
  Timestamp t3 = Put("k", "v3");
  EXPECT_LT(t1, t2);
  EXPECT_LT(t2, t3);
  EXPECT_EQ(**db_.SnapshotRead("T", "k", t1), "v1");
  EXPECT_EQ(**db_.SnapshotRead("T", "k", t2), "v2");
  EXPECT_EQ(**db_.SnapshotRead("T", "k", t3), "v3");
  EXPECT_EQ(**db_.SnapshotRead("T", "k", t3 + 100), "v3");
}

TEST_F(SpannerTest, DeleteCreatesTombstone) {
  Timestamp t1 = Put("k", "v1");
  auto txn = db_.BeginTransaction();
  txn->Delete("T", "k");
  auto result = txn->Commit();
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(db_.SnapshotRead("T", "k", result->commit_ts)->has_value());
  EXPECT_TRUE(db_.SnapshotRead("T", "k", t1)->has_value());
}

TEST_F(SpannerTest, SnapshotScanOrderedAndBounded) {
  Put("a", "1");
  Put("c", "3");
  Put("b", "2");
  Put("d", "4");
  Timestamp now = db_.StrongReadTimestamp();
  auto rows = db_.SnapshotScan("T", "b", "d", now);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].key, "b");
  EXPECT_EQ((*rows)[1].key, "c");
}

TEST_F(SpannerTest, ScanWithLimit) {
  for (int i = 0; i < 10; ++i) Put("k" + std::to_string(i), "v");
  auto rows = db_.SnapshotScan("T", "", "", db_.StrongReadTimestamp(), 3);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST_F(SpannerTest, ScanSkipsTombstones) {
  Put("a", "1");
  Put("b", "2");
  auto txn = db_.BeginTransaction();
  txn->Delete("T", "a");
  ASSERT_TRUE(txn->Commit().ok());
  auto rows = db_.SnapshotScan("T", "", "", db_.StrongReadTimestamp());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].key, "b");
}

TEST_F(SpannerTest, UnknownTableErrors) {
  EXPECT_EQ(db_.SnapshotRead("nope", "k", 1).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.CreateTable("T").code(), StatusCode::kAlreadyExists);
}

// A commit that writes an unknown table fails whole: no row of the tables
// before it in the write set is applied.
TEST_F(SpannerTest, CommitToUnknownTableAppliesNothing) {
  auto txn = db_.BeginTransaction();
  txn->Put("T", "k", "v");
  txn->Put("nope", "k", "v");  // orders after "T"
  EXPECT_EQ(txn->Commit().status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(
      db_.SnapshotRead("T", "k", db_.StrongReadTimestamp())->has_value());
  EXPECT_EQ(db_.lock_manager().LockCount(), 0);
}

// ---------------------------------------------------------------------------
// Transactions

TEST_F(SpannerTest, ReadYourOwnWrites) {
  auto txn = db_.BeginTransaction();
  txn->Put("T", "k", "mine");
  auto v = txn->Read("T", "k");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->has_value());
  EXPECT_EQ(**v, "mine");
}

TEST_F(SpannerTest, AbortDiscardsWrites) {
  auto txn = db_.BeginTransaction();
  txn->Put("T", "k", "x");
  txn->Abort();
  EXPECT_FALSE(
      db_.SnapshotRead("T", "k", db_.StrongReadTimestamp())->has_value());
}

TEST_F(SpannerTest, CommitTimestampsStrictlyIncrease) {
  Timestamp prev = 0;
  for (int i = 0; i < 20; ++i) {
    Timestamp ts = Put("k" + std::to_string(i), "v");
    EXPECT_GT(ts, prev);
    prev = ts;
  }
}

TEST_F(SpannerTest, CommitRespectsMinAllowed) {
  auto txn = db_.BeginTransaction();
  txn->Put("T", "k", "v");
  Timestamp min_allowed = clock_.NowMicros() + 1'000'000;
  auto result = txn->Commit(min_allowed, kMaxTimestamp);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->commit_ts, min_allowed);
}

TEST_F(SpannerTest, CommitFailsWhenMaxAllowedTooLow) {
  Put("warm", "v");  // push the oracle forward
  auto txn = db_.BeginTransaction();
  txn->Put("T", "k", "v");
  auto result = txn->Commit(0, 1);  // max below the oracle floor
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  // Failed commit leaves no trace.
  EXPECT_FALSE(
      db_.SnapshotRead("T", "k", db_.StrongReadTimestamp())->has_value());
}

TEST_F(SpannerTest, TransactionalMessagesDeliveredOnCommit) {
  auto txn = db_.BeginTransaction();
  txn->Put("T", "k", "v");
  txn->AddMessage("triggers", "payload1");
  auto result = txn->Commit();
  ASSERT_TRUE(result.ok());
  auto msg = db_.queue().Pop("triggers");
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->payload, "payload1");
  EXPECT_EQ(msg->commit_ts, result->commit_ts);
}

TEST_F(SpannerTest, AbortedTransactionMessagesDropped) {
  auto txn = db_.BeginTransaction();
  txn->AddMessage("triggers", "payload");
  txn->Abort();
  EXPECT_FALSE(db_.queue().Pop("triggers").has_value());
}

TEST_F(SpannerTest, TransactionScanMergesBufferedWrites) {
  Put("a", "old");
  Put("c", "keep");
  auto txn = db_.BeginTransaction();
  txn->Put("T", "a", "new");
  txn->Put("T", "b", "insert");
  txn->Delete("T", "c");
  auto rows = txn->Scan("T", "", "");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].key, "a");
  EXPECT_EQ((*rows)[0].value, "new");
  EXPECT_EQ((*rows)[1].key, "b");
}

TEST_F(SpannerTest, TransactionScanPageOfOwnDeletesIsNotTheEnd) {
  Put("a", "1");
  Put("b", "2");
  Put("c", "3");
  auto txn = db_.BeginTransaction();
  txn->Delete("T", "a");
  txn->Delete("T", "b");
  // Both stored rows of the first page are buffered deletes; paging callers
  // read an empty page as the end of the range.
  auto rows = txn->Scan("T", "", "", 2);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].key, "c");
  EXPECT_EQ((*rows)[0].value, "3");
  // A buffered insert takes its place in the page like a stored row.
  txn->Put("T", "bb", "new");
  rows = txn->Scan("T", "", "", 1);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].key, "bb");
}

TEST_F(SpannerTest, WriteConflictSerializes) {
  // Two transactions write the same key: the younger gets wounded or waits;
  // the final state must be one of the two values with both commits ordered.
  auto t1 = db_.BeginTransaction();
  auto t2 = db_.BeginTransaction();
  t1->Put("T", "k", "from-t1");
  auto r1 = t1->Commit();
  ASSERT_TRUE(r1.ok());
  t2->Put("T", "k", "from-t2");
  auto r2 = t2->Commit();
  ASSERT_TRUE(r2.ok());
  EXPECT_GT(r2->commit_ts, r1->commit_ts);
  EXPECT_EQ(**db_.SnapshotRead("T", "k", r2->commit_ts), "from-t2");
}

TEST_F(SpannerTest, OlderTransactionWoundsYoungerHolder) {
  auto older = db_.BeginTransaction();
  auto younger = db_.BeginTransaction();
  ASSERT_LT(older->id(), younger->id());
  // Younger takes the lock first.
  ASSERT_TRUE(younger->Read("T", "k", LockMode::kExclusive).ok());
  // Older requests the same lock from another thread; it must wound the
  // younger and eventually acquire.
  std::atomic<bool> acquired{false};
  std::thread t([&] {
    auto v = older->Read("T", "k", LockMode::kExclusive);
    acquired = v.ok();
  });
  // The younger transaction now finds itself wounded.
  Status s;
  for (int i = 0; i < 100; ++i) {
    s = younger->Read("T", "other", LockMode::kShared).status();
    if (!s.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  younger->Abort();
  t.join();
  EXPECT_TRUE(acquired);
  older->Abort();
}

TEST_F(SpannerTest, WoundedTransactionCannotCommit) {
  auto older = db_.BeginTransaction();
  auto younger = db_.BeginTransaction();
  db_.lock_manager().Wound(younger->id());
  younger->Put("T", "k", "x");
  EXPECT_EQ(younger->Commit().status().code(), StatusCode::kAborted);
  older->Abort();
}

TEST_F(SpannerTest, SharedLocksAllowConcurrentReaders) {
  Put("k", "v");
  auto t1 = db_.BeginTransaction();
  auto t2 = db_.BeginTransaction();
  EXPECT_TRUE(t1->Read("T", "k").ok());
  EXPECT_TRUE(t2->Read("T", "k").ok());
  t1->Abort();
  t2->Abort();
}

TEST_F(SpannerTest, ConcurrentIncrementsAreSerializable) {
  Put("counter", "0");
  constexpr int kThreads = 4;
  constexpr int kIncrementsPerThread = 25;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::atomic<int> committed{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        while (true) {
          auto txn = db_.BeginTransaction();
          auto v = txn->Read("T", "counter", LockMode::kExclusive);
          if (!v.ok()) continue;  // wounded: retry
          int current = std::stoi(**v);
          txn->Put("T", "counter", std::to_string(current + 1));
          if (txn->Commit().ok()) {
            ++committed;
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(committed.load(), kThreads * kIncrementsPerThread);
  auto v = db_.SnapshotRead("T", "counter", db_.StrongReadTimestamp());
  EXPECT_EQ(**v, std::to_string(kThreads * kIncrementsPerThread));
}

// ---------------------------------------------------------------------------
// Tablets: splitting and participants

TEST_F(SpannerTest, ExplicitSplitRoutesKeys) {
  Put("apple", "1");
  Put("mango", "2");
  Table* table = db_.GetTable("T");
  ASSERT_TRUE(table->SplitAt("h").ok());
  EXPECT_EQ(table->tablet_count(), 2u);
  EXPECT_EQ(table->TabletForKey("apple")->first, "");
  EXPECT_EQ(table->TabletForKey("mango")->first, "h");
  // Data still readable across the split.
  EXPECT_EQ(**db_.SnapshotRead("T", "apple", db_.StrongReadTimestamp()), "1");
  EXPECT_EQ(**db_.SnapshotRead("T", "mango", db_.StrongReadTimestamp()), "2");
}

TEST_F(SpannerTest, ScanCrossesTabletBoundaries) {
  for (char c = 'a'; c <= 'f'; ++c) Put(std::string(1, c), "v");
  Table* table = db_.GetTable("T");
  ASSERT_TRUE(table->SplitAt("c").ok());
  ASSERT_TRUE(table->SplitAt("e").ok());
  auto rows = db_.SnapshotScan("T", "", "", db_.StrongReadTimestamp());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 6u);
  for (size_t i = 0; i + 1 < rows->size(); ++i) {
    EXPECT_LT((*rows)[i].key, (*rows)[i + 1].key);
  }
}

TEST_F(SpannerTest, LoadBasedSplitting) {
  std::vector<Key> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back("key" + std::to_string(i));
    Put(keys.back(), "v");
  }
  Table* table = db_.GetTable("T");
  EXPECT_EQ(table->tablet_count(), 1u);
  int splits = db_.RunLoadSplitting(/*load_threshold=*/100);
  EXPECT_GE(splits, 1);
  EXPECT_GT(table->tablet_count(), 1u);
  // One hot tablet splits once, at its median stored key.
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(splits, 1);
  ASSERT_EQ(table->tablet_count(), 2u);
  std::vector<Key> starts;
  for (const auto& [start, stats] : table->tablets()) starts.push_back(start);
  EXPECT_EQ(starts, (std::vector<Key>{"", keys[100]}));
}

TEST_F(SpannerTest, LoadSplittingSettlesUnderSteadyLoad) {
  char buf[8];
  std::vector<Key> keys;
  for (int i = 0; i < 256; ++i) {
    std::snprintf(buf, sizeof(buf), "k%03d", i);
    keys.push_back(buf);
    Put(keys.back(), "v");
  }
  Table* table = db_.GetTable("T");
  // Every pass reads each key once: 256 reads (plus the 256 writes before
  // the first pass) halve into 128 then 64 per tablet, and 64 stays under
  // the threshold, pass after pass.
  for (int pass = 1; pass <= 10; ++pass) {
    const Timestamp ts = db_.StrongReadTimestamp();
    for (const Key& key : keys) {
      ASSERT_TRUE(db_.SnapshotRead("T", key, ts).ok());
    }
    db_.RunLoadSplitting(/*load_threshold=*/100);
    const size_t want = pass == 1 ? 2 : 4;
    EXPECT_EQ(table->tablet_count(), want) << "pass " << pass;
    EXPECT_EQ(MetricRegistry::Global().GetGauge("spanner.tablets").value(),
              static_cast<int64_t>(want))
        << "pass " << pass;
  }
}

TEST_F(SpannerTest, ScanChargesEachReturnedRowToItsTablet) {
  for (char c = 'a'; c <= 'j'; ++c) Put(std::string(1, c), "v");
  auto txn = db_.BeginTransaction();
  txn->Delete("T", "e");
  ASSERT_TRUE(txn->Commit().ok());
  Table* table = db_.GetTable("T");
  ASSERT_TRUE(table->SplitAt("d").ok());
  ASSERT_TRUE(table->SplitAt("g").ok());
  const int64_t scanned_before =
      MetricRegistry::Global().GetCounter("spanner.rows.scanned").value();
  // Starts inside ["", d) and stops at max_rows inside [g, +inf); the
  // tombstoned "e" is skipped, not charged.
  auto rows = db_.SnapshotScan("T", "c", "", db_.StrongReadTimestamp(), 6);
  ASSERT_TRUE(rows.ok());
  std::vector<Key> keys;
  for (const ScanRow& row : *rows) keys.push_back(row.key);
  EXPECT_EQ(keys, (std::vector<Key>{"c", "d", "f", "g", "h", "i"}));
  EXPECT_EQ(MetricRegistry::Global().GetCounter("spanner.rows.scanned").value(),
            scanned_before + 6);
  std::vector<int64_t> reads;
  for (const auto& [start, stats] : table->tablets()) {
    reads.push_back(stats.reads.load());
  }
  EXPECT_EQ(reads, (std::vector<int64_t>{1, 2, 3}));
}

TEST_F(SpannerTest, ParticipantCountReflectsTabletsTouched) {
  for (char c = 'a'; c <= 'f'; ++c) Put(std::string(1, c), "v");
  Table* table = db_.GetTable("T");
  ASSERT_TRUE(table->SplitAt("d").ok());
  auto txn = db_.BeginTransaction();
  txn->Put("T", "a", "1");
  txn->Put("T", "b", "2");
  auto single = txn->Commit();
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->participants, 1);
  auto txn2 = db_.BeginTransaction();
  txn2->Put("T", "a", "1");
  txn2->Put("T", "e", "2");
  auto multi = txn2->Commit();
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(multi->participants, 2);

  // Two tables, each split: a tablet counts once however many of its keys
  // are written, and tablets of different tables count apart.
  ASSERT_TRUE(db_.CreateTable("U").ok());
  ASSERT_TRUE(db_.GetTable("U")->SplitAt("m").ok());
  auto txn3 = db_.BeginTransaction();
  for (const char* key : {"a", "b", "c", "d", "f"}) txn3->Put("T", key, "3");
  for (const char* key : {"a", "l", "m", "z"}) txn3->Put("U", key, "3");
  txn3->Delete("U", "n");
  auto both = txn3->Commit();
  ASSERT_TRUE(both.ok());
  // T: [""..d) and [d..); U: [""..m) and [m..).
  EXPECT_EQ(both->participants, 4);
  auto txn4 = db_.BeginTransaction();
  txn4->Put("T", "e", "4");
  txn4->Put("U", "b", "4");
  txn4->Put("U", "c", "4");
  auto one_each = txn4->Commit();
  ASSERT_TRUE(one_each.ok());
  EXPECT_EQ(one_each->participants, 2);
}

TEST_F(SpannerTest, GarbageCollectionDropsOldVersions) {
  Put("k", "v1");
  Put("k", "v2");
  Timestamp t3 = Put("k", "v3");
  int64_t dropped = db_.GarbageCollect(t3);
  EXPECT_GE(dropped, 2);
  EXPECT_EQ(**db_.SnapshotRead("T", "k", t3), "v3");
}

TEST_F(SpannerTest, ReadsBelowGcHorizonFailInsteadOfReportingAbsent) {
  Timestamp t1 = Put("k", "v1");
  clock_.AdvanceBy(10);
  Timestamp t2 = Put("k", "v2");
  clock_.AdvanceBy(10);
  db_.GarbageCollect(t2 + 1);
  // Below the horizon the old version is gone: "absent" would be a lie.
  auto old_read = db_.SnapshotRead("T", "k", t1);
  EXPECT_EQ(old_read.status().code(), StatusCode::kFailedPrecondition);
  auto old_scan = db_.SnapshotScan("T", "", "", t1);
  EXPECT_EQ(old_scan.status().code(), StatusCode::kFailedPrecondition);
  // At and above the horizon reads are unchanged.
  EXPECT_EQ(**db_.SnapshotRead("T", "k", t2 + 1), "v2");
  EXPECT_EQ(**db_.SnapshotRead("T", "k", db_.StrongReadTimestamp()), "v2");
  auto scan = db_.SnapshotScan("T", "", "", t2 + 1);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 1u);
  EXPECT_EQ((*scan)[0].value, "v2");
  // The horizon never moves back.
  db_.GarbageCollect(t1);
  EXPECT_EQ(db_.SnapshotRead("T", "k", t1).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(SpannerTest, GarbageCollectionRemovesDeadRows) {
  auto del = [&](const std::string& key) {
    auto txn = db_.BeginTransaction();
    txn->Delete("T", key);
    auto result = txn->Commit();
    FS_CHECK(result.ok());
    return result->commit_ts;
  };
  Put("k", "v1");
  EXPECT_EQ(db_.GarbageCollect(del("k") + 1), 2);
  auto rows = db_.SnapshotScan("T", "", "", db_.StrongReadTimestamp());
  EXPECT_TRUE(rows->empty());
  // Put, put, delete of one key, collected in one pass: the overwrite's
  // entry trims both puts but must leave the row to the tombstone's entry.
  Put("j", "v1");
  Put("j", "v2");
  EXPECT_EQ(db_.GarbageCollect(del("j") + 1), 3);
  rows = db_.SnapshotScan("T", "", "", db_.StrongReadTimestamp());
  EXPECT_TRUE(rows->empty());
  EXPECT_EQ(db_.GetTable("T")->gc_queue_size(), 0u);
}

TEST_F(SpannerTest, GarbageCollectionCostFollowsQueuedWrites) {
  Table* table = db_.GetTable("T");
  auto key = [](int i) { return "k" + std::to_string(i); };
  for (int i = 0; i < 100; ++i) Put(key(i), "v1");
  // Fresh keys shadow nothing: a pass has nothing to visit.
  EXPECT_EQ(table->gc_queue_size(), 0u);
  EXPECT_EQ(db_.GarbageCollect(db_.last_commit_ts()), 0);
  std::vector<Timestamp> overwrites;
  for (int i = 0; i < 6; ++i) overwrites.push_back(Put(key(i), "v2"));
  EXPECT_EQ(table->gc_queue_size(), 6u);
  // A horizon pops only the entries at or below it.
  EXPECT_EQ(db_.GarbageCollect(overwrites[2]), 3);
  EXPECT_EQ(table->gc_queue_size(), 3u);
  EXPECT_EQ(db_.GarbageCollect(db_.last_commit_ts() + 1), 3);
  EXPECT_EQ(table->gc_queue_size(), 0u);
  Timestamp now = db_.StrongReadTimestamp();
  EXPECT_EQ(**db_.SnapshotRead("T", key(0), now), "v2");
  EXPECT_EQ(**db_.SnapshotRead("T", key(99), now), "v1");
  EXPECT_EQ(db_.SnapshotScan("T", "", "", now)->size(), 100u);
}

// A row keeps its newest version inline and the ones it shadows in a list
// that GC trims; both must answer reads at every timestamp.
TEST_F(SpannerTest, RowVersionsReadAndCollectAcrossTheInlineVersion) {
  Table table("R");
  table.Apply("k", "v1", 10);
  table.Apply("k", "v2", 20);
  table.Apply("k", "v3", 30);
  auto expect_read = [&](Timestamp at, RowValue value, Timestamp version) {
    Timestamp found = -1;
    EXPECT_EQ(table.ReadAt("k", at, &found), value) << "at " << at;
    EXPECT_EQ(found, version) << "at " << at;
  };
  auto expect_reads_from_20 = [&] {
    expect_read(20, "v2", 20);
    expect_read(25, "v2", 20);
    expect_read(30, "v3", 30);
    expect_read(kMaxTimestamp, "v3", 30);
  };
  expect_read(9, std::nullopt, 0);
  expect_read(10, "v1", 10);
  expect_read(15, "v1", 10);
  expect_reads_from_20();

  // v2 is the newest version at or below 25, so only v1 goes.
  EXPECT_EQ(table.GarbageCollect(25), 1);
  expect_reads_from_20();
  auto scan = table.ScanAt("", "", 25);
  ASSERT_EQ(scan.size(), 1u);
  EXPECT_EQ(scan[0].value, "v2");
  EXPECT_EQ(scan[0].version, 20);

  // Past the tombstone, the row and its queued entries are gone.
  table.Apply("k", std::nullopt, 40);
  expect_read(40, std::nullopt, 40);
  EXPECT_EQ(table.GarbageCollect(40), 3);
  EXPECT_EQ(table.gc_queue_size(), 0u);
  expect_read(kMaxTimestamp, std::nullopt, 0);
  EXPECT_TRUE(table.ScanAt("", "", kMaxTimestamp).empty());

  // A re-inserted key starts a fresh row.
  table.Apply("k", "v4", 50);
  expect_read(45, std::nullopt, 0);
  expect_read(50, "v4", 50);
  EXPECT_EQ(table.gc_queue_size(), 0u);

  // A GC at or above the newest version empties the older-version list and
  // frees it.
  table.Apply("k", "v5", 60);
  EXPECT_EQ(table.rows_with_older_versions(), 1u);
  EXPECT_EQ(table.GarbageCollect(60), 1);
  EXPECT_EQ(table.rows_with_older_versions(), 0u);
  expect_read(kMaxTimestamp, "v5", 60);
}

// An empty value is stored without a block of its own and a tombstone as a
// null handle; reads must tell them apart at every version and after GC.
TEST_F(SpannerTest, EmptyValueAndTombstoneStayDistinct) {
  Table table("R");
  table.Apply("k", "", 10);
  table.Apply("k", std::nullopt, 20);
  table.Apply("k", "", 30);
  table.Apply("k", std::nullopt, 40);
  auto expect_read = [&](Timestamp at, RowValue value, Timestamp version) {
    Timestamp found = -1;
    EXPECT_EQ(table.ReadAt("k", at, &found), value) << "at " << at;
    EXPECT_EQ(found, version) << "at " << at;
  };
  auto expect_reads_from_30 = [&] {
    expect_read(30, "", 30);
    expect_read(35, "", 30);
    expect_read(40, std::nullopt, 40);
  };
  expect_read(9, std::nullopt, 0);
  expect_read(10, "", 10);
  expect_read(15, "", 10);
  expect_read(20, std::nullopt, 20);
  expect_read(25, std::nullopt, 20);
  expect_reads_from_30();
  auto scan = table.ScanAt("", "", 35);
  ASSERT_EQ(scan.size(), 1u);
  EXPECT_EQ(scan[0].value, "");
  EXPECT_EQ(scan[0].version, 30);
  EXPECT_TRUE(table.ScanAt("", "", 25).empty());

  // The empty value at 30 is the newest version at or below 35, so the two
  // versions before it go and the row keeps reading the same.
  EXPECT_EQ(table.GarbageCollect(35), 2);
  expect_reads_from_30();
  // Past the final tombstone the row is gone.
  EXPECT_EQ(table.GarbageCollect(40), 2);
  expect_read(kMaxTimestamp, std::nullopt, 0);
  EXPECT_TRUE(table.ScanAt("", "", kMaxTimestamp).empty());
}

// ---------------------------------------------------------------------------
// Referee: storage against a brute-force versioned model, with explicit and
// load-based splits and garbage collection interleaved with the commits.

class StoragePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoragePropertyTest, TableMatchesVersionedModel) {
  using History = std::map<Timestamp, RowValue>;
  Rng rng(GetParam());
  ManualClock clock(1'000'000);
  Database db(&clock);
  ASSERT_TRUE(db.CreateTable("T").ok());
  Table* table = db.GetTable("T");
  // 200 keys of 1-80 bytes over an alphabet with both ends of the byte
  // range; a third are prefixes of another key, so ordering is tested on
  // the bytes and on the length.
  std::vector<Key> key_pool;
  {
    const char alphabet[] = {'\x00', '\x01', 'a', 'k', '\x7f', '\x80',
                             '\xff'};
    std::set<Key> distinct;
    while (distinct.size() < 200) {
      Key key;
      if (!distinct.empty() && rng.Bernoulli(0.33)) {
        auto base = std::next(distinct.begin(),
                              rng.Uniform(0, distinct.size() - 1));
        key = base->substr(0, rng.Uniform(1, base->size()));
      } else {
        for (int n = static_cast<int>(rng.Uniform(1, 80)); n > 0; --n) {
          key.push_back(alphabet[rng.Uniform(0, sizeof(alphabet) - 1)]);
        }
      }
      distinct.insert(key);
    }
    key_pool.assign(distinct.begin(), distinct.end());
  }
  auto random_key = [&] {
    return key_pool[rng.Uniform(0, key_pool.size() - 1)];
  };
  // Empty values, short values and values longer than 15 bytes.
  auto random_value = [&](int step) {
    switch (rng.Uniform(0, 2)) {
      case 0:
        return std::string();
      case 1:
        return "v" + std::to_string(step);
      default:
        return std::string(rng.Uniform(16, 100), '\xff') +
               std::to_string(step);
    }
  };
  // Every committed version, and what GC leaves stored.
  std::map<Key, History> history;
  std::map<Key, History> stored;
  Timestamp horizon = 0;

  auto model_read = [](const std::map<Key, History>& rows, const Key& key,
                       Timestamp ts, Timestamp* version) {
    *version = 0;
    auto row = rows.find(key);
    if (row == rows.end()) return RowValue();
    auto it = row->second.upper_bound(ts);
    if (it == row->second.begin()) return RowValue();
    --it;
    *version = it->first;
    return it->second;
  };
  auto boundaries = [&] {
    std::vector<Key> starts;
    for (const auto& [start, stats] : table->tablets()) starts.push_back(start);
    return starts;
  };
  // Brute force: the index of the last tablet starting at or before `key`.
  auto owner = [](const std::vector<Key>& starts, const Key& key) {
    size_t index = 0;
    for (size_t i = 0; i < starts.size(); ++i) {
      if (starts[i] <= key) index = i;
    }
    return index;
  };
  // Each tablet ends where the next starts, so the tiling is whole when the
  // first start is "" and the starts are sorted.
  auto check_tiling = [&] {
    std::vector<Key> starts = boundaries();
    ASSERT_FALSE(starts.empty());
    EXPECT_EQ(starts.front(), "");
    for (size_t i = 0; i + 1 < starts.size(); ++i) {
      EXPECT_LT(starts[i], starts[i + 1]);
    }
  };

  for (int step = 0; step < 600; ++step) {
    // A commit of 1-4 puts and deletes.
    clock.AdvanceBy(rng.Uniform(1, 3));
    auto txn = db.BeginTransaction();
    std::map<Key, RowValue> writes;
    for (int n = static_cast<int>(rng.Uniform(1, 4)); n > 0; --n) {
      Key key = random_key();
      if (rng.Bernoulli(0.25)) {
        txn->Delete("T", key);
        writes[key] = std::nullopt;
      } else {
        std::string value = random_value(step);
        txn->Put("T", key, value);
        writes[key] = value;
      }
    }
    auto commit = txn->Commit();
    ASSERT_TRUE(commit.ok());
    // Participants: the distinct tablets owning the written keys.
    std::set<size_t> owners;
    const std::vector<Key> starts = boundaries();
    for (const auto& [key, value] : writes) owners.insert(owner(starts, key));
    EXPECT_EQ(commit->participants, static_cast<int>(owners.size()));
    for (const auto& [key, value] : writes) {
      history[key][commit->commit_ts] = value;
      stored[key][commit->commit_ts] = value;
    }
    const Timestamp now = db.last_commit_ts();

    // Point reads at or above the horizon, and below it.
    for (int r = 0; r < 3; ++r) {
      Key key = random_key();
      Timestamp ts = rng.Uniform(horizon, now);
      Timestamp version = 0, history_version = 0, stored_version = 0;
      auto got = db.SnapshotRead("T", key, ts, &version);
      ASSERT_TRUE(got.ok());
      RowValue want = model_read(history, key, ts, &history_version);
      EXPECT_EQ(*got, want) << key << "@" << ts;
      // At or above the horizon GC changes no value, but a tombstone it
      // dropped reads as never written (version 0).
      EXPECT_EQ(model_read(stored, key, ts, &stored_version), want);
      EXPECT_EQ(version, stored_version) << key << "@" << ts;
    }
    if (horizon > 0) {
      Timestamp below = rng.Uniform(0, horizon - 1);
      EXPECT_EQ(db.SnapshotRead("T", random_key(), below).status().code(),
                StatusCode::kFailedPrecondition);
      EXPECT_EQ(db.SnapshotScan("T", "", "", below).status().code(),
                StatusCode::kFailedPrecondition);
    }

    // A scan over random bounds and page size.
    {
      Key start = rng.Bernoulli(0.2) ? "" : random_key();
      Key limit = rng.Bernoulli(0.2) ? "" : random_key();
      int64_t max_rows = rng.Bernoulli(0.3) ? 0 : rng.Uniform(1, 40);
      Timestamp ts = rng.Uniform(horizon, now);
      std::vector<ScanRow> want;
      for (auto it = history.lower_bound(start); it != history.end(); ++it) {
        if (!limit.empty() && it->first >= limit) break;
        if (max_rows > 0 && static_cast<int64_t>(want.size()) == max_rows) {
          break;
        }
        Timestamp version = 0;
        RowValue value = model_read(history, it->first, ts, &version);
        if (value.has_value()) want.push_back({it->first, *value, version});
      }
      auto got = db.SnapshotScan("T", start, limit, ts, max_rows);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), want.size()) << start << ".." << limit;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ((*got)[i].key, want[i].key);
        EXPECT_EQ((*got)[i].value, want[i].value);
        EXPECT_EQ((*got)[i].version, want[i].version);
      }
    }

    // Maintenance, interleaved.
    if (rng.Bernoulli(0.03)) {
      Key split = random_key();
      std::vector<Key> before = boundaries();
      bool exists =
          std::find(before.begin(), before.end(), split) != before.end();
      Status status = table->SplitAt(split);
      EXPECT_EQ(status.code(),
                exists ? StatusCode::kAlreadyExists : StatusCode::kOk);
      if (!exists) {
        before.insert(
            std::upper_bound(before.begin(), before.end(), split), split);
      }
      EXPECT_EQ(boundaries(), before);
    }
    if (rng.Bernoulli(0.05)) {
      const int64_t threshold = rng.Uniform(5, 60);
      // Predicted: every tablet at the threshold with two or more stored
      // keys splits at the middle one, and every tablet's load restarts at
      // zero.
      const std::vector<Key> starts = boundaries();
      std::vector<Key> want = starts;
      int predicted = 0;
      for (size_t i = 0; i < starts.size(); ++i) {
        const TabletStats& st = table->tablets().at(starts[i]);
        if (st.reads.load() + st.writes.load() < threshold) continue;
        std::vector<Key> keys;
        for (const auto& [key, versions] : stored) {
          if (owner(starts, key) == i) keys.push_back(key);
        }
        if (keys.size() < 2) continue;
        want.push_back(keys[keys.size() / 2]);
        ++predicted;
      }
      std::sort(want.begin(), want.end());
      EXPECT_EQ(db.RunLoadSplitting(threshold), predicted);
      EXPECT_EQ(boundaries(), want);
      for (const auto& [start, stats] : table->tablets()) {
        EXPECT_EQ(stats.reads.load() + stats.writes.load(), 0) << start;
      }
    }
    if (rng.Bernoulli(0.05)) {
      Timestamp h = rng.Uniform(horizon, now + 10);
      const int64_t dropped = db.GarbageCollect(h);
      horizon = std::max(horizon, std::min(h, now));
      // GC must be complete, not only leave reads correct: it drops exactly
      // the versions and rows the model drops.
      int64_t model_dropped = 0;
      for (auto row = stored.begin(); row != stored.end();) {
        History& versions = row->second;
        auto keep = versions.upper_bound(h);
        if (keep != versions.begin()) --keep;
        model_dropped += std::distance(versions.begin(), keep);
        versions.erase(versions.begin(), keep);
        if (versions.size() == 1 && versions.begin()->first <= h &&
            !versions.begin()->second.has_value()) {
          ++model_dropped;
          row = stored.erase(row);
        } else {
          ++row;
        }
      }
      EXPECT_EQ(dropped, model_dropped) << "GC at " << h;
    }
    check_tiling();
    if (HasFailure()) return;
  }
  EXPECT_GT(table->tablet_count(), 1u);
  EXPECT_GT(horizon, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoragePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------------
// Lock manager edges

TEST(LockManagerTest, SharedToExclusiveUpgrade) {
  LockManager locks;
  EXPECT_TRUE(locks.Acquire(1, "k", LockMode::kShared).ok());
  EXPECT_TRUE(locks.Acquire(1, "k", LockMode::kExclusive).ok());  // upgrade
  // A second shared request now conflicts (would wait); use a timeout.
  EXPECT_EQ(locks.Acquire(2, "k", LockMode::kShared, 50).code(),
            StatusCode::kDeadlineExceeded);
  locks.ReleaseAll(1);
  EXPECT_TRUE(locks.Acquire(2, "k", LockMode::kShared, 50).ok());
  locks.ReleaseAll(2);
  EXPECT_EQ(locks.LockCount(), 0);
}

TEST(LockManagerTest, ExclusiveIsReentrant) {
  LockManager locks;
  EXPECT_TRUE(locks.Acquire(1, "k", LockMode::kExclusive).ok());
  EXPECT_TRUE(locks.Acquire(1, "k", LockMode::kExclusive).ok());
  EXPECT_TRUE(locks.Acquire(1, "k", LockMode::kShared).ok());
  locks.ReleaseAll(1);
  EXPECT_EQ(locks.LockCount(), 0);
}

TEST(LockManagerTest, YoungerWaiterTimesOutInsteadOfWounding) {
  LockManager locks;
  EXPECT_TRUE(locks.Acquire(1, "k", LockMode::kExclusive).ok());
  // Txn 2 is younger than the holder: wound-wait says it must wait.
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(locks.Acquire(2, "k", LockMode::kExclusive, 50).code(),
            StatusCode::kDeadlineExceeded);
  auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  EXPECT_GE(waited, 40);
  EXPECT_FALSE(locks.IsWounded(1));  // older holder is never wounded
  locks.ReleaseAll(1);
  locks.ReleaseAll(2);
}

TEST(LockManagerTest, ReleaseAllClearsWoundedFlag) {
  LockManager locks;
  locks.Wound(7);
  EXPECT_TRUE(locks.IsWounded(7));
  EXPECT_EQ(locks.Acquire(7, "k", LockMode::kShared).code(),
            StatusCode::kAborted);
  locks.ReleaseAll(7);
  EXPECT_FALSE(locks.IsWounded(7));
  EXPECT_TRUE(locks.Acquire(7, "k", LockMode::kShared).ok());
  locks.ReleaseAll(7);
}

// ---------------------------------------------------------------------------
// Timestamp oracle

TEST(TimestampOracleTest, MonotonicAcrossClockStalls) {
  ManualClock clock(1000);
  TimestampOracle oracle(&clock);
  auto t1 = oracle.Allocate(0, kMaxTimestamp);
  auto t2 = oracle.Allocate(0, kMaxTimestamp);  // clock did not move
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_GT(*t2, *t1);
}

TEST(TimestampOracleTest, RespectsWindow) {
  ManualClock clock(1000);
  TimestampOracle oracle(&clock);
  EXPECT_EQ(oracle.Allocate(5000, 6000).value(), 5000);
  EXPECT_EQ(oracle.Allocate(0, 4000).status().code(), StatusCode::kAborted);
}

}  // namespace
}  // namespace firestore::spanner
