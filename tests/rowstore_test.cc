#include <gtest/gtest.h>

#include <thread>

#include "common/rng.h"
#include "rowstore/engine.h"

namespace imci {
namespace {

std::shared_ptr<const Schema> TestSchema(TableId id = 1) {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"k", DataType::kInt64, false, true});
  cols.push_back({"payload", DataType::kString, true, true});
  return std::make_shared<Schema>(id, "t" + std::to_string(id), cols, 0,
                                  std::vector<int>{1});
}

class RowStoreTest : public ::testing::Test {
 protected:
  RowStoreTest() : engine_(&fs_, &catalog_) {
    EXPECT_TRUE(engine_.CreateTable(TestSchema()).ok());
    table_ = engine_.GetTable(1);
  }
  PolarFs fs_;
  Catalog catalog_;
  RowStoreEngine engine_;
  RowTable* table_;
};

TEST_F(RowStoreTest, InsertLookupDelete) {
  std::vector<RedoRecord> redo;
  ASSERT_TRUE(table_->Insert({int64_t(1), int64_t(5), std::string("a")},
                             &redo).ok());
  EXPECT_EQ(redo.size(), 1u);
  EXPECT_EQ(redo[0].type, RedoType::kInsert);
  Row row;
  ASSERT_TRUE(table_->Get(1, &row).ok());
  EXPECT_EQ(AsInt(row[1]), 5);
  redo.clear();
  Row old_row;
  ASSERT_TRUE(table_->Delete(1, &old_row, &redo).ok());
  EXPECT_EQ(redo[0].type, RedoType::kDelete);
  EXPECT_TRUE(table_->Get(1, &row).IsNotFound());
}

TEST_F(RowStoreTest, DuplicateInsertRejected) {
  std::vector<RedoRecord> redo;
  ASSERT_TRUE(table_->Insert({int64_t(1), int64_t(0), Value{}}, &redo).ok());
  EXPECT_FALSE(table_->Insert({int64_t(1), int64_t(0), Value{}}, &redo).ok());
}

TEST_F(RowStoreTest, UpdateEmitsDiffRecord) {
  std::vector<RedoRecord> redo;
  ASSERT_TRUE(table_->Insert({int64_t(9), int64_t(1), std::string("aaaa")},
                             &redo).ok());
  redo.clear();
  Row old_row;
  ASSERT_TRUE(table_->Update(9, {int64_t(9), int64_t(2), std::string("bbbb")},
                             &old_row, &redo).ok());
  ASSERT_EQ(redo.size(), 1u);
  EXPECT_EQ(redo[0].type, RedoType::kUpdate);
  EXPECT_EQ(AsInt(old_row[1]), 1);
  Row row;
  ASSERT_TRUE(table_->Get(9, &row).ok());
  EXPECT_EQ(AsInt(row[1]), 2);
}

TEST_F(RowStoreTest, SplitsProduceSmoRecordsAndKeepScansOrdered) {
  Rng rng(5);
  std::vector<RedoRecord> all_redo;
  for (int64_t i = 0; i < 3000; ++i) {
    std::vector<RedoRecord> redo;
    int64_t key = (i * 2654435761) % 100000;  // pseudo-random order
    Status s = table_->Insert({key, i, rng.RandomString(40, 80)}, &redo);
    if (!s.ok()) continue;  // duplicate pseudo-random key
    for (auto& r : redo) all_redo.push_back(std::move(r));
  }
  bool saw_smo = false;
  for (const auto& r : all_redo) {
    if (r.type == RedoType::kSmo) {
      saw_smo = true;
      EXPECT_EQ(r.tid, 0u);
      EXPECT_GE(r.page_images.size(), 2u);
    }
  }
  EXPECT_TRUE(saw_smo);
  // Scan returns keys in ascending order across leaf chain.
  int64_t prev = -1;
  uint64_t count = 0;
  (void)table_->Scan([&](int64_t pk, const Row&) {
    EXPECT_GT(pk, prev);
    prev = pk;
    ++count;
    return true;
  });
  EXPECT_EQ(count, table_->row_count());
  EXPECT_GT(count, 2000u);
}

TEST_F(RowStoreTest, RangeScan) {
  std::vector<RedoRecord> redo;
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(table_->Insert({i, i, Value{}}, &redo).ok());
  }
  std::vector<int64_t> got;
  (void)table_->ScanRange(10, 19, [&](int64_t pk, const Row&) {
    got.push_back(pk);
    return true;
  });
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got.front(), 10);
  EXPECT_EQ(got.back(), 19);
}

TEST_F(RowStoreTest, SecondaryIndexMaintainedAcrossDml) {
  std::vector<RedoRecord> redo;
  ASSERT_TRUE(table_->Insert({int64_t(1), int64_t(100), Value{}}, &redo).ok());
  ASSERT_TRUE(table_->Insert({int64_t(2), int64_t(100), Value{}}, &redo).ok());
  ASSERT_TRUE(table_->Insert({int64_t(3), int64_t(200), Value{}}, &redo).ok());
  std::vector<int64_t> pks;
  ASSERT_TRUE(table_->SnapshotIndexLookup(kMaxVid, 1, 100, &pks).ok());
  EXPECT_EQ(pks.size(), 2u);
  Row old_row;
  ASSERT_TRUE(table_->Update(2, {int64_t(2), int64_t(200), Value{}}, &old_row,
                             &redo).ok());
  pks.clear();
  ASSERT_TRUE(table_->SnapshotIndexLookup(kMaxVid, 1, 200, &pks).ok());
  EXPECT_EQ(pks.size(), 2u);
  ASSERT_TRUE(table_->Delete(3, &old_row, &redo).ok());
  pks.clear();
  ASSERT_TRUE(table_->SnapshotIndexLookupRange(kMaxVid, 1, 0, 1000, &pks).ok());
  EXPECT_EQ(pks.size(), 2u);
}

TEST_F(RowStoreTest, BulkLoadThenPointReads) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 5000; ++i) {
    rows.push_back({i, i % 17, std::string("v") + std::to_string(i)});
  }
  ASSERT_TRUE(table_->BulkLoad(rows).ok());
  EXPECT_EQ(table_->row_count(), 5000u);
  Row row;
  ASSERT_TRUE(table_->Get(4321, &row).ok());
  EXPECT_EQ(AsString(row[2]), "v4321");
}

TEST(LockManagerTest, ExclusiveAndReentrant) {
  LockManager locks(5'000);
  ASSERT_TRUE(locks.Lock(1, 1, 42).ok());
  ASSERT_TRUE(locks.Lock(1, 1, 42).ok());  // re-entrant
  EXPECT_TRUE(locks.Lock(2, 1, 42).IsBusy());  // times out
  locks.Unlock(1, 1, 42);
  EXPECT_TRUE(locks.Lock(2, 1, 42).ok());
}

class TxnTest : public ::testing::Test {
 protected:
  TxnTest()
      : engine_(&fs_, &catalog_),
        writer_(fs_.log("redo")),
        binlog_(fs_.log("binlog")),
        txns_(&engine_, &writer_, &locks_, &binlog_) {
    EXPECT_TRUE(engine_.CreateTable(TestSchema()).ok());
  }
  PolarFs fs_;
  Catalog catalog_;
  RowStoreEngine engine_;
  RedoWriter writer_;
  LockManager locks_;
  BinlogWriter binlog_;
  TransactionManager txns_;
};

TEST_F(TxnTest, CommitAssignsIncreasingVids) {
  Transaction t1, t2;
  txns_.Begin(&t1);
  ASSERT_TRUE(txns_.Insert(&t1, 1, {int64_t(1), int64_t(1), Value{}}).ok());
  ASSERT_TRUE(txns_.Commit(&t1).ok());
  txns_.Begin(&t2);
  ASSERT_TRUE(txns_.Insert(&t2, 1, {int64_t(2), int64_t(2), Value{}}).ok());
  ASSERT_TRUE(txns_.Commit(&t2).ok());
  EXPECT_LT(t1.commit_vid(), t2.commit_vid());
  EXPECT_EQ(txns_.commits(), 2u);
}

TEST_F(TxnTest, RollbackUndoesAllOps) {
  Transaction setup;
  txns_.Begin(&setup);
  ASSERT_TRUE(txns_.Insert(&setup, 1, {int64_t(1), int64_t(10),
                                       std::string("orig")}).ok());
  ASSERT_TRUE(txns_.Commit(&setup).ok());

  Transaction txn;
  txns_.Begin(&txn);
  ASSERT_TRUE(txns_.Insert(&txn, 1, {int64_t(2), int64_t(2), Value{}}).ok());
  ASSERT_TRUE(txns_.Update(&txn, 1, 1, {int64_t(1), int64_t(99),
                                        std::string("mod")}).ok());
  ASSERT_TRUE(txns_.Delete(&txn, 1, 1).ok());
  ASSERT_TRUE(txns_.Rollback(&txn).ok());

  Row row;
  ASSERT_TRUE(txns_.Get(1, 1, &row).ok());
  EXPECT_EQ(AsInt(row[1]), 10);
  EXPECT_EQ(AsString(row[2]), "orig");
  EXPECT_TRUE(txns_.Get(1, 2, &row).IsNotFound());
}

TEST_F(TxnTest, LockConflictReportsBusy) {
  Transaction t1, t2;
  txns_.Begin(&t1);
  ASSERT_TRUE(txns_.Insert(&t1, 1, {int64_t(5), int64_t(0), Value{}}).ok());
  txns_.Begin(&t2);
  Row row;
  EXPECT_TRUE(txns_.GetForUpdate(&t2, 1, 5, &row).IsBusy());
  ASSERT_TRUE(txns_.Commit(&t1).ok());
  EXPECT_TRUE(txns_.GetForUpdate(&t2, 1, 5, &row).ok());
  ASSERT_TRUE(txns_.Commit(&t2).ok());
}

TEST_F(TxnTest, BinlogModeWritesLogicalLogAndExtraFsync) {
  txns_.set_binlog_enabled(true);
  const uint64_t fsyncs_before = fs_.fsync_count();
  Transaction txn;
  txns_.Begin(&txn);
  ASSERT_TRUE(txns_.Insert(&txn, 1, {int64_t(9), int64_t(9), Value{}}).ok());
  ASSERT_TRUE(txns_.Commit(&txn).ok());
  // One commit fsync + one binlog fsync: the Fig. 11 overhead.
  EXPECT_EQ(fs_.fsync_count() - fsyncs_before, 2u);
  EXPECT_EQ(binlog_.txns_written(), 1u);
  EXPECT_GT(binlog_.bytes_written(), 0u);
}

TEST_F(TxnTest, ConcurrentDisjointCommits) {
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        Transaction txn;
        txns_.Begin(&txn);
        int64_t pk = t * 1000 + i;
        if (txns_.Insert(&txn, 1, {pk, pk, Value{}}).ok() &&
            txns_.Commit(&txn).ok()) {
          ok_count.fetch_add(1);
        } else {
          (void)txns_.Rollback(&txn);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), 400);
  EXPECT_EQ(engine_.GetTable(1)->row_count(), 400u);
}

TEST(PageSerializationTest, AllPageTypesRoundTrip) {
  Page leaf;
  leaf.id = 5;
  leaf.table_id = 2;
  leaf.type = PageType::kLeaf;
  leaf.next_leaf = 6;
  leaf.keys = {1, 2, 3};
  leaf.payloads = {"a", "bb", "ccc"};
  leaf.page_lsn = 17;
  std::string buf;
  leaf.Serialize(&buf);
  Page out;
  ASSERT_TRUE(Page::Deserialize(buf.data(), buf.size(), &out).ok());
  EXPECT_EQ(out.keys, leaf.keys);
  EXPECT_EQ(out.payloads, leaf.payloads);
  EXPECT_EQ(out.next_leaf, 6u);
  EXPECT_EQ(out.page_lsn, 17u);

  Page internal;
  internal.id = 9;
  internal.type = PageType::kInternal;
  internal.keys = {10, 20};
  internal.children = {100, 101, 102};
  buf.clear();
  internal.Serialize(&buf);
  ASSERT_TRUE(Page::Deserialize(buf.data(), buf.size(), &out).ok());
  EXPECT_EQ(out.children, internal.children);

  Page meta;
  meta.id = 1;
  meta.type = PageType::kMeta;
  meta.root_page = 9;
  meta.first_leaf = 5;
  buf.clear();
  meta.Serialize(&buf);
  ASSERT_TRUE(Page::Deserialize(buf.data(), buf.size(), &out).ok());
  EXPECT_EQ(out.root_page, 9u);
  EXPECT_EQ(out.first_leaf, 5u);
}

}  // namespace
}  // namespace imci
