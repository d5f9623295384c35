#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "rowstore/engine.h"
#include "rowstore/lock_manager.h"

namespace imci {
namespace {

// Short lock-wait timeout so conflict cases resolve quickly.
constexpr uint64_t kShortTimeoutUs = 3'000;

TEST(LockManagerTest, ExclusiveConflictsWithExclusive) {
  LockManager lm(kShortTimeoutUs);
  ASSERT_TRUE(lm.Lock(1, 7, 42).ok());
  EXPECT_TRUE(lm.Lock(2, 7, 42).IsBusy());
  // Different key or table: no conflict.
  EXPECT_TRUE(lm.Lock(2, 7, 43).ok());
  EXPECT_TRUE(lm.Lock(2, 8, 42).ok());
}

TEST(LockManagerTest, ExclusiveIsReentrant) {
  LockManager lm(kShortTimeoutUs);
  ASSERT_TRUE(lm.Lock(1, 7, 42).ok());
  EXPECT_TRUE(lm.Lock(1, 7, 42).ok());
  EXPECT_TRUE(lm.Lock(2, 7, 42).IsBusy());
  // One hold, not two: a single Unlock frees the key.
  lm.Unlock(1, 7, 42);
  EXPECT_TRUE(lm.Lock(2, 7, 42).ok());
}

TEST(LockManagerTest, SharedIsCompatibleWithShared) {
  LockManager lm(kShortTimeoutUs);
  ASSERT_TRUE(lm.LockShared(1, 7, 42).ok());
  ASSERT_TRUE(lm.LockShared(2, 7, 42).ok());
  ASSERT_TRUE(lm.LockShared(3, 7, 42).ok());
  // Re-entrant share keeps a single hold: one Unlock per sharer frees the
  // key for an exclusive lock.
  ASSERT_TRUE(lm.LockShared(1, 7, 42).ok());
  lm.Unlock(1, 7, 42);
  lm.Unlock(2, 7, 42);
  EXPECT_TRUE(lm.Lock(4, 7, 42).IsBusy());  // tid 3 still shares it
  lm.Unlock(3, 7, 42);
  EXPECT_TRUE(lm.Lock(4, 7, 42).ok());
}

TEST(LockManagerTest, SharedBlocksExclusiveAndViceVersa) {
  LockManager lm(kShortTimeoutUs);
  ASSERT_TRUE(lm.LockShared(1, 7, 42).ok());
  EXPECT_TRUE(lm.Lock(2, 7, 42).IsBusy());  // S held, X wanted
  lm.Unlock(1, 7, 42);
  ASSERT_TRUE(lm.Lock(2, 7, 42).ok());
  EXPECT_TRUE(lm.LockShared(1, 7, 42).IsBusy());  // X held, S wanted
}

TEST(LockManagerTest, ExclusiveHolderGetsSharedForFree) {
  LockManager lm(kShortTimeoutUs);
  ASSERT_TRUE(lm.Lock(1, 7, 42).ok());
  EXPECT_TRUE(lm.LockShared(1, 7, 42).ok());
  // The shared request added no hold of its own: the exclusive lock still
  // excludes others, and one Unlock releases everything.
  EXPECT_TRUE(lm.LockShared(2, 7, 42).IsBusy());
  lm.Unlock(1, 7, 42);
  EXPECT_TRUE(lm.Lock(2, 7, 42).ok());
}

TEST(LockManagerTest, SoleSharerUpgradesOthersTimeout) {
  LockManager lm(kShortTimeoutUs);
  ASSERT_TRUE(lm.LockShared(1, 7, 42).ok());
  // Sole shared holder may upgrade in place.
  ASSERT_TRUE(lm.Lock(1, 7, 42).ok());
  EXPECT_TRUE(lm.LockShared(2, 7, 42).IsBusy());
  lm.Unlock(1, 7, 42);

  // With two sharers, neither can upgrade (classic upgrade deadlock is
  // resolved by the wait timeout).
  ASSERT_TRUE(lm.LockShared(1, 7, 42).ok());
  ASSERT_TRUE(lm.LockShared(2, 7, 42).ok());
  EXPECT_TRUE(lm.Lock(1, 7, 42).IsBusy());
}

TEST(LockManagerTest, UnlockByNonOwnerIsNoOp) {
  LockManager lm(kShortTimeoutUs);
  ASSERT_TRUE(lm.Lock(1, 7, 42).ok());
  lm.Unlock(2, 7, 42);
  EXPECT_TRUE(lm.Lock(2, 7, 42).IsBusy());  // tid 1 still owns it
}

TEST(LockManagerTest, ReleaseWakesWaiter) {
  LockManager lm(/*timeout_us=*/2'000'000);
  ASSERT_TRUE(lm.Lock(1, 7, 42).ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    Status s = lm.Lock(2, 7, 42);
    EXPECT_TRUE(s.ok()) << s.ToString();
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());
  lm.Unlock(1, 7, 42);
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

std::shared_ptr<const Schema> TwoColSchema() {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  return std::make_shared<Schema>(1, "t", cols, 0);
}

/// Release-all-on-commit through the transaction manager: rows touched by a
/// committed (or rolled-back) transaction are immediately lockable again.
TEST(LockManagerTest, TransactionCommitReleasesAllRowLocks) {
  PolarFs fs;
  Catalog catalog;
  RowStoreEngine engine(&fs, &catalog);
  RedoWriter redo(fs.log("redo"));
  LockManager locks(kShortTimeoutUs);
  TransactionManager txns(&engine, &redo, &locks);
  ASSERT_TRUE(engine.CreateTable(TwoColSchema()).ok());

  Transaction writer;
  txns.Begin(&writer);
  for (int64_t pk = 0; pk < 10; ++pk) {
    ASSERT_TRUE(txns.Insert(&writer, 1, {pk, pk * 2}).ok());
  }
  // Another tid finds every uncommitted row locked.
  constexpr Tid kProbe = 1'000'000;
  for (int64_t pk = 0; pk < 10; ++pk) {
    EXPECT_TRUE(locks.Lock(kProbe, 1, pk).IsBusy()) << pk;
  }

  // A concurrent transaction cannot touch the uncommitted rows.
  Transaction other;
  txns.Begin(&other);
  Row row;
  EXPECT_TRUE(txns.GetForUpdate(&other, 1, 3, &row).IsBusy());

  ASSERT_TRUE(txns.Commit(&writer).ok());
  // ... and after commit every one of them is grantable.
  for (int64_t pk = 0; pk < 10; ++pk) {
    ASSERT_TRUE(txns.GetForUpdate(&other, 1, pk, &row).ok());
    EXPECT_EQ(AsInt(row[1]), pk * 2);
  }
  ASSERT_TRUE(txns.Rollback(&other).ok());
  // Rollback released the other transaction's locks too.
  for (int64_t pk = 0; pk < 10; ++pk) {
    EXPECT_TRUE(locks.Lock(kProbe, 1, pk).ok()) << pk;
  }
}

}  // namespace
}  // namespace imci
