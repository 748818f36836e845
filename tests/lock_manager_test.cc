// Conflict-path tests for the wound-wait lock manager (paper §IV-D1/D3):
// writer-writer conflicts, shared->exclusive upgrades under contention,
// release-after-abort, and whole write sets granted by one AcquireAll. Each
// scenario runs real threads through the blocking acquisition path and
// asserts the lock table drains to empty afterwards.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "spanner/lock_manager.h"

namespace firestore::spanner {
namespace {

int64_t LockWaits() {
  return MetricRegistry::Global().GetCounter("spanner.lock.waits").value();
}

// Blocks until some acquisition has started waiting since `waits` was read:
// the waiter counts its wait under the manager's mutex and frees it only
// inside the wait.
void AwaitWaiter(int64_t waits) {
  while (LockWaits() == waits) std::this_thread::yield();
}

// ---------------------------------------------------------------------------
// Writer-writer conflict

// An older writer that runs into a younger writer's exclusive lock wounds
// the younger transaction and takes the lock once it is released.
TEST(LockManagerConflictTest, WriterWriterConflictOlderWoundsYounger) {
  LockManager locks;

  // Younger txn 2 grabs the row first.
  ASSERT_TRUE(locks.Acquire(2, "t/row", LockMode::kExclusive).ok());

  std::atomic<bool> older_granted{false};
  std::thread older([&] {
    // Blocks: txn 2 holds the lock. Wound-wait marks txn 2 wounded and
    // waits for the release instead of deadlocking or aborting txn 1.
    Status s = locks.Acquire(1, "t/row", LockMode::kExclusive);
    EXPECT_TRUE(s.ok()) << s;
    older_granted.store(true);
  });

  // The victim eventually observes the wound; any further lock request it
  // makes is refused with ABORTED.
  while (!locks.IsWounded(2)) std::this_thread::yield();
  EXPECT_FALSE(older_granted.load());
  Status refused = locks.Acquire(2, "t/other", LockMode::kShared);
  EXPECT_EQ(refused.code(), StatusCode::kAborted);

  locks.ReleaseAll(2);  // abort path: victim rolls back
  older.join();
  EXPECT_TRUE(older_granted.load());

  locks.ReleaseAll(1);
  EXPECT_EQ(locks.LockCount(), 0);
}

// A younger writer never wounds an older one: it waits until the older
// transaction commits (releases) and then proceeds.
TEST(LockManagerConflictTest, WriterWriterConflictYoungerWaits) {
  LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, "t/row", LockMode::kExclusive).ok());

  std::atomic<bool> younger_granted{false};
  std::thread younger([&] {
    Status s = locks.Acquire(2, "t/row", LockMode::kExclusive);
    EXPECT_TRUE(s.ok()) << s;
    younger_granted.store(true);
  });

  // Give the younger txn a chance to enqueue; it must neither be granted
  // nor wound the older holder.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(younger_granted.load());
  EXPECT_FALSE(locks.IsWounded(1));

  locks.ReleaseAll(1);
  younger.join();
  EXPECT_TRUE(younger_granted.load());

  locks.ReleaseAll(2);
  EXPECT_EQ(locks.LockCount(), 0);
}

// ---------------------------------------------------------------------------
// Shared-lock upgrade

// Two readers share a row; the older one upgrades to exclusive. The upgrade
// conflicts with the younger reader, which is wounded and rolls back; the
// upgrade is then granted.
TEST(LockManagerConflictTest, SharedUpgradeWoundsYoungerReader) {
  LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, "t/row", LockMode::kShared).ok());
  ASSERT_TRUE(locks.Acquire(2, "t/row", LockMode::kShared).ok());

  std::atomic<bool> upgraded{false};
  std::thread upgrader([&] {
    Status s = locks.Acquire(1, "t/row", LockMode::kExclusive);
    EXPECT_TRUE(s.ok()) << s;
    upgraded.store(true);
  });

  while (!locks.IsWounded(2)) std::this_thread::yield();
  EXPECT_EQ(locks.Acquire(2, "t/row", LockMode::kExclusive).code(),
            StatusCode::kAborted);
  locks.ReleaseAll(2);

  upgrader.join();
  EXPECT_TRUE(upgraded.load());

  locks.ReleaseAll(1);
  EXPECT_EQ(locks.LockCount(), 0);
}

// A younger upgrader blocks behind an older shared holder (no wound) and
// completes the upgrade once the older reader releases.
TEST(LockManagerConflictTest, SharedUpgradeYoungerWaitsForOlderReader) {
  LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, "t/row", LockMode::kShared).ok());
  ASSERT_TRUE(locks.Acquire(2, "t/row", LockMode::kShared).ok());

  std::atomic<bool> upgraded{false};
  std::thread upgrader([&] {
    Status s = locks.Acquire(2, "t/row", LockMode::kExclusive);
    EXPECT_TRUE(s.ok()) << s;
    upgraded.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(upgraded.load());
  EXPECT_FALSE(locks.IsWounded(1));

  locks.ReleaseAll(1);
  upgrader.join();
  EXPECT_TRUE(upgraded.load());

  locks.ReleaseAll(2);
  EXPECT_EQ(locks.LockCount(), 0);
}

// ---------------------------------------------------------------------------
// Release after abort

// A wounded transaction holding many locks releases everything on abort:
// the lock table is empty, waiters wake up, and the wounded flag is cleared
// so the txn id could be reused.
TEST(LockManagerConflictTest, ReleaseAfterAbortDrainsLockTable) {
  LockManager locks;
  std::vector<std::string> keys;
  for (int i = 0; i < 16; ++i) {
    keys.push_back("t/row" + std::to_string(i));
    ASSERT_TRUE(locks.Acquire(7, keys.back(), LockMode::kExclusive).ok());
  }
  EXPECT_EQ(locks.LockCount(), 16);

  locks.Wound(7);
  EXPECT_TRUE(locks.IsWounded(7));
  EXPECT_EQ(locks.Acquire(7, "t/rowX", LockMode::kShared).code(),
            StatusCode::kAborted);

  locks.ReleaseAll(7);
  EXPECT_EQ(locks.LockCount(), 0);
  EXPECT_FALSE(locks.IsWounded(7));

  // The keys are immediately available to another transaction.
  for (const std::string& key : keys) {
    EXPECT_TRUE(locks.Acquire(8, key, LockMode::kExclusive).ok());
  }
  locks.ReleaseAll(8);
  EXPECT_EQ(locks.LockCount(), 0);
}

// Acquire with a timeout returns DEADLINE_EXCEEDED (not a hang) when an
// older holder never releases, and leaves no residue in the lock table.
TEST(LockManagerConflictTest, TimeoutLeavesNoResidue) {
  LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, "t/row", LockMode::kExclusive).ok());

  Status s = locks.Acquire(2, "t/row", LockMode::kExclusive, /*timeout_ms=*/20);
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);

  locks.ReleaseAll(2);  // no-op: nothing was granted
  locks.ReleaseAll(1);
  EXPECT_EQ(locks.LockCount(), 0);
}

// ---------------------------------------------------------------------------
// Write sets (AcquireAll)

// A younger write set that meets an older transaction's lock midway keeps
// the keys granted before it, waits without wounding, and then holds every
// key.
TEST(LockManagerBatchTest, WriteSetWaitsMidwayThenHoldsEveryKey) {
  LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, "t/b", LockMode::kExclusive).ok());

  const int64_t waits = LockWaits();
  std::atomic<bool> granted{false};
  std::thread writer([&] {
    std::vector<std::string> keys = {"t/a", "t/b", "t/c"};
    Status s = locks.AcquireAll(2, keys, LockMode::kExclusive);
    EXPECT_TRUE(s.ok()) << s;
    granted.store(true);
  });

  AwaitWaiter(waits);
  EXPECT_FALSE(granted.load());
  EXPECT_FALSE(locks.IsWounded(1));
  EXPECT_EQ(locks.LockCount(), 2);  // t/a granted to 2, t/b held by 1

  locks.ReleaseAll(1);
  writer.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(locks.LockCount(), 3);
  // Every key is now txn 2's, exclusively.
  for (const char* key : {"t/a", "t/b", "t/c"}) {
    EXPECT_EQ(locks.Acquire(3, key, LockMode::kShared, /*timeout_ms=*/5)
                  .code(),
              StatusCode::kDeadlineExceeded)
        << key;
  }

  locks.ReleaseAll(3);
  locks.ReleaseAll(2);
  EXPECT_EQ(locks.LockCount(), 0);
}

// The holder's release erases the entry a waiter is waiting on, and the
// holder's other locks make the table rehash while the waiter sleeps. The
// waiter finds its key again by value, re-creates the entry and is granted.
TEST(LockManagerBatchTest, WaiterWhoseEntryIsErasedStillGetsLock) {
  LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, "t/row", LockMode::kExclusive).ok());

  const int64_t waits = LockWaits();
  std::thread waiter([&] {
    std::vector<std::string> keys = {"t/row", "t/row2"};
    Status s = locks.AcquireAll(2, keys, LockMode::kExclusive);
    EXPECT_TRUE(s.ok()) << s;
  });

  AwaitWaiter(waits);
  std::vector<std::string> more;
  for (int i = 0; i < 512; ++i) more.push_back("t/more" + std::to_string(i));
  ASSERT_TRUE(locks.AcquireAll(1, more, LockMode::kExclusive).ok());
  EXPECT_EQ(locks.LockCount(), 513);
  locks.ReleaseAll(1);  // erases every entry txn 1 held, t/row included
  waiter.join();
  EXPECT_EQ(locks.LockCount(), 2);

  locks.ReleaseAll(2);
  EXPECT_EQ(locks.LockCount(), 0);
}

// An older transaction wounds a younger write set while it waits midway:
// the batch returns ABORTED, keeps the keys granted before the wound until
// ReleaseAll frees them, and never takes the keys after it.
TEST(LockManagerBatchTest, WoundMidBatchAbortsAndReleaseFreesGrantedKeys) {
  LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, "t/b", LockMode::kExclusive).ok());

  int64_t waits = LockWaits();
  Status batch;
  std::thread younger([&] {
    std::vector<std::string> keys = {"t/a", "t/b", "t/c"};
    batch = locks.AcquireAll(2, keys, LockMode::kExclusive);
  });
  AwaitWaiter(waits);  // txn 2 holds t/a and waits for t/b

  waits = LockWaits();
  std::atomic<bool> older_granted{false};
  std::thread older([&] {
    // Conflicts with txn 2 on t/a: wounds it, then waits for the release.
    Status s = locks.Acquire(1, "t/a", LockMode::kExclusive);
    EXPECT_TRUE(s.ok()) << s;
    older_granted.store(true);
  });
  younger.join();
  EXPECT_EQ(batch.code(), StatusCode::kAborted);
  AwaitWaiter(waits);
  EXPECT_FALSE(older_granted.load());
  EXPECT_EQ(locks.LockCount(), 2);  // t/a (txn 2), t/b (txn 1); no t/c

  locks.ReleaseAll(2);  // the abort path
  older.join();
  EXPECT_TRUE(older_granted.load());
  EXPECT_FALSE(locks.IsWounded(2));
  EXPECT_EQ(locks.LockCount(), 2);  // both now txn 1's

  locks.ReleaseAll(1);
  EXPECT_EQ(locks.LockCount(), 0);
}

// A key the transaction already holds shared, from a read, is upgraded to
// exclusive inside its write set.
TEST(LockManagerBatchTest, WriteSetUpgradesKeyHeldSharedByRead) {
  LockManager locks;
  ASSERT_TRUE(locks.Acquire(1, "t/b", LockMode::kShared).ok());
  // Another reader shares it meanwhile.
  ASSERT_TRUE(locks.Acquire(2, "t/b", LockMode::kShared).ok());
  locks.ReleaseAll(2);

  std::vector<std::string> keys = {"t/a", "t/b", "t/c"};
  ASSERT_TRUE(locks.AcquireAll(1, keys, LockMode::kExclusive).ok());
  EXPECT_EQ(locks.LockCount(), 3);
  // Exclusive now: a younger reader waits and times out.
  EXPECT_EQ(locks.Acquire(2, "t/b", LockMode::kShared, /*timeout_ms=*/5)
                .code(),
            StatusCode::kDeadlineExceeded);

  locks.ReleaseAll(2);
  locks.ReleaseAll(1);
  EXPECT_EQ(locks.LockCount(), 0);
}

}  // namespace
}  // namespace firestore::spanner
