// MVCC snapshot reads on the RW node: the anomaly matrix (dirty read,
// non-repeatable read, read skew across two tables — each shown to
// *reproduce* on an unlocked read of the raw latest B+tree image, the
// pre-MVCC read path, and to be impossible under snapshot reads), write
// skew documented as allowed, multi-row transaction atomicity under a
// concurrent write-heavy mix (the tsan stress), version chain pruning
// pinned by long-lived snapshots across TriggerCheckpoint, and the
// reader/writer latch regression: a slow scan no longer blocks writers.
//
// The RoMvccTest arm covers the RO side of the same substrate: Phase#1
// physical replay installs replica page changes as *in-flight* versions
// keyed by the owning transaction, Phase#2 stamps them at the commit
// decision, and RO row-engine scans run at a pinned applied-VID snapshot —
// so a scan during a straddling multi-row apply sees all-or-nothing even
// though the raw replica pages are torn mid-apply.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "tests/test_util.h"

namespace imci {
namespace {

std::shared_ptr<const Schema> KvSchema(TableId id, const std::string& name) {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  return std::make_shared<Schema>(id, name, cols, 0);
}

std::vector<Row> KvRows(int64_t n, int64_t v) {
  std::vector<Row> rows;
  for (int64_t pk = 0; pk < n; ++pk) rows.push_back({pk, v});
  return rows;
}

/// One committed single-row update (retried on lock timeouts).
Status UpdateOne(TransactionManager* txns, TableId table, int64_t pk,
                 int64_t v) {
  for (;;) {
    Transaction txn;
    txns->Begin(&txn);
    Row row;
    Status s = txns->GetForUpdate(&txn, table, pk, &row);
    if (s.ok()) {
      row[1] = v;
      s = txns->Update(&txn, table, pk, row);
    }
    if (!s.ok()) {
      (void)txns->Rollback(&txn);
      if (s.IsBusy()) continue;
      return s;
    }
    return txns->Commit(&txn);
  }
}

class MvccIsolationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rw_ = std::make_unique<RwNode>(&fs_, &catalog_);
    ASSERT_TRUE(rw_->CreateTable(KvSchema(1, "a")).ok());
    ASSERT_TRUE(rw_->CreateTable(KvSchema(2, "b")).ok());
    ASSERT_TRUE(rw_->BulkLoad(1, KvRows(10, 100)).ok());
    ASSERT_TRUE(rw_->BulkLoad(2, KvRows(10, 100)).ok());
    txns_ = rw_->txn_manager();
  }

  int64_t ReadV(TableId table, int64_t pk) {
    Row row;
    Status s = txns_->Get(table, pk, &row);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return s.ok() ? AsInt(row[1]) : -1;
  }

  /// The pre-MVCC read: an unlocked read of the raw latest B+tree image,
  /// uncommitted writes included — the path the anomaly halves reproduce on.
  int64_t ReadRawV(TableId table, int64_t pk) {
    Row row;
    Status s = rw_->engine()->GetTable(table)->Get(pk, &row);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return s.ok() ? AsInt(row[1]) : -1;
  }

  PolarFs fs_;
  Catalog catalog_;
  std::unique_ptr<RwNode> rw_;
  TransactionManager* txns_ = nullptr;
};

TEST_F(MvccIsolationTest, DirtyReadImpossibleButReproducesOnLegacyPath) {
  Transaction t1;
  txns_->Begin(&t1);
  Row row;
  ASSERT_TRUE(txns_->GetForUpdate(&t1, 1, 0, &row).ok());
  row[1] = int64_t(999);
  ASSERT_TRUE(txns_->Update(&t1, 1, 0, row).ok());

  // Snapshot read: the uncommitted write is invisible.
  EXPECT_EQ(ReadV(1, 0), 100);

  // The pre-MVCC read of the raw B+tree image sees the uncommitted write —
  // the dirty-read anomaly this layer removes.
  EXPECT_EQ(ReadRawV(1, 0), 999);

  ASSERT_TRUE(txns_->Rollback(&t1).ok());
  EXPECT_EQ(ReadV(1, 0), 100);
  // Rollback removed the in-flight version; at most the seeded base stays.
  EXPECT_LE(rw_->engine()->GetTable(1)->VersionChainLength(0), 1u);
}

TEST_F(MvccIsolationTest, NonRepeatableReadImpossibleUnderOneView) {
  ReadView view = txns_->OpenReadView();
  Row row;
  ASSERT_TRUE(txns_->Get(view, 1, 3, &row).ok());
  EXPECT_EQ(AsInt(row[1]), 100);

  ASSERT_TRUE(UpdateOne(txns_, 1, 3, 777).ok());

  // The same view repeats the original value; a fresh snapshot sees the
  // commit.
  ASSERT_TRUE(txns_->Get(view, 1, 3, &row).ok());
  EXPECT_EQ(AsInt(row[1]), 100);
  EXPECT_EQ(ReadV(1, 3), 777);
  view.Close();

  // Pre-MVCC arm: two raw latest-image reads around the same interleave
  // produce two different values — the non-repeatable-read anomaly.
  const int64_t first = ReadRawV(1, 3);
  ASSERT_TRUE(UpdateOne(txns_, 1, 3, 778).ok());
  EXPECT_NE(ReadRawV(1, 3), first);  // anomaly reproduced
}

TEST_F(MvccIsolationTest, ReadSkewAcrossTwoTablesImpossibleUnderSnapshot) {
  // Invariant maintained by every writer: a[5].v + b[5].v == 200.
  auto transfer = [&] {
    Transaction txn;
    txns_->Begin(&txn);
    Row a, b;
    ASSERT_TRUE(txns_->GetForUpdate(&txn, 1, 5, &a).ok());
    ASSERT_TRUE(txns_->GetForUpdate(&txn, 2, 5, &b).ok());
    a[1] = AsInt(a[1]) - 50;
    b[1] = AsInt(b[1]) + 50;
    ASSERT_TRUE(txns_->Update(&txn, 1, 5, a).ok());
    ASSERT_TRUE(txns_->Update(&txn, 2, 5, b).ok());
    ASSERT_TRUE(txns_->Commit(&txn).ok());
  };

  // Pre-MVCC: raw-read A, let a transfer commit, raw-read B — the sum is
  // torn (the read-skew anomaly, deterministic with this handshake).
  const int64_t raw_a = ReadRawV(1, 5);
  transfer();
  EXPECT_EQ(raw_a + ReadRawV(2, 5), 250);  // != 200: anomaly reproduced

  // Snapshot: the same interleave under one view preserves the invariant.
  Row a, b;
  ReadView view = txns_->OpenReadView();
  ASSERT_TRUE(txns_->Get(view, 1, 5, &a).ok());
  transfer();
  ASSERT_TRUE(txns_->Get(view, 2, 5, &b).ok());
  EXPECT_EQ(AsInt(a[1]) + AsInt(b[1]), 200);

  // A fresh view sees the post-transfer state, still consistent.
  ReadView after = txns_->OpenReadView();
  ASSERT_TRUE(txns_->Get(after, 1, 5, &a).ok());
  ASSERT_TRUE(txns_->Get(after, 2, 5, &b).ok());
  EXPECT_EQ(AsInt(a[1]) + AsInt(b[1]), 200);
}

TEST_F(MvccIsolationTest, WriteSkewIsAllowedUnderSnapshotIsolation) {
  // Snapshot isolation (not serializability): two transactions each read
  // the *other* row through their snapshot, see the old state, and write
  // their own row — both commit, and the cross-row constraint "a + b > 0"
  // the reads were meant to guard is violated. Documented as allowed; the
  // serializable upgrade path (SSI-style write-read tracking) is a ROADMAP
  // follow-up.
  Transaction t1, t2;
  txns_->Begin(&t1);
  txns_->Begin(&t2);
  ReadView v1 = txns_->OpenReadView();
  ReadView v2 = txns_->OpenReadView();
  Row other, mine;

  ASSERT_TRUE(txns_->Get(v1, 2, 7, &other).ok());  // t1 checks b[7]
  EXPECT_EQ(AsInt(other[1]), 100);                 // "b still has funds"
  ASSERT_TRUE(txns_->GetForUpdate(&t1, 1, 7, &mine).ok());
  mine[1] = int64_t(0);
  ASSERT_TRUE(txns_->Update(&t1, 1, 7, mine).ok());

  ASSERT_TRUE(txns_->Get(v2, 1, 7, &other).ok());  // t2 checks a[7]
  EXPECT_EQ(AsInt(other[1]), 100);  // snapshot: t1's write invisible
  ASSERT_TRUE(txns_->GetForUpdate(&t2, 2, 7, &mine).ok());
  mine[1] = int64_t(0);
  ASSERT_TRUE(txns_->Update(&t2, 2, 7, mine).ok());

  ASSERT_TRUE(txns_->Commit(&t1).ok());
  ASSERT_TRUE(txns_->Commit(&t2).ok());
  EXPECT_EQ(ReadV(1, 7) + ReadV(2, 7), 0);  // skew happened (allowed)
}

TEST_F(MvccIsolationTest, SnapshotScanMergesDeletedRowsAndHidesLaterWrites) {
  ReadView view = txns_->OpenReadView();

  // After the view opens: delete pk 2, insert pk 100 — one transaction.
  Transaction txn;
  txns_->Begin(&txn);
  ASSERT_TRUE(txns_->Delete(&txn, 1, 2).ok());
  ASSERT_TRUE(txns_->Insert(&txn, 1, {int64_t(100), int64_t(1)}).ok());
  ASSERT_TRUE(txns_->Commit(&txn).ok());

  // The old view still sees pk 2 (served from its version chain — the tree
  // no longer holds the key) and not pk 100.
  std::vector<int64_t> pks;
  ASSERT_TRUE(txns_->Scan(view, 1, [&](int64_t pk, const Row&) {
    pks.push_back(pk);
    return true;
  }).ok());
  EXPECT_EQ(pks, (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  Row row;
  EXPECT_TRUE(txns_->Get(view, 1, 2, &row).ok());
  EXPECT_TRUE(txns_->Get(view, 1, 100, &row).IsNotFound());

  // A fresh view sees the delete and the insert.
  ReadView now = txns_->OpenReadView();
  pks.clear();
  ASSERT_TRUE(txns_->Scan(now, 1, [&](int64_t pk, const Row&) {
    pks.push_back(pk);
    return true;
  }).ok());
  EXPECT_EQ(pks, (std::vector<int64_t>{0, 1, 3, 4, 5, 6, 7, 8, 9, 100}));
  EXPECT_TRUE(txns_->Get(now, 1, 2, &row).IsNotFound());
  EXPECT_TRUE(txns_->Get(now, 1, 100, &row).ok());
}

TEST_F(MvccIsolationTest, MultiRowTxnAtomicityUnderWriteHeavyStress) {
  // 8 threads (4 writers + 4 scanners — the tsan stress): writers set all 4
  // rows of a group to one fresh token per transaction; scanners assert a
  // snapshot never shows a torn group (all-or-none of each multi-row txn).
  constexpr int kGroups = 8;
  constexpr int kWriters = 4;
  constexpr int kScanners = 4;
  ASSERT_TRUE(rw_->CreateTable(KvSchema(3, "g")).ok());
  ASSERT_TRUE(rw_->BulkLoad(3, KvRows(4 * kGroups, 0)).ok());

  const uint64_t seed = testing_util::TestSeed(42);
  const int txns_per_writer = testing_util::TestIters(200);
  SCOPED_TRACE(::testing::Message() << "IMCI_TEST_SEED=" << seed
                                    << " IMCI_TEST_ITERS=" << txns_per_writer
                                    << " reproduces this run");
  std::atomic<int> writers_left{kWriters};
  std::atomic<int64_t> next_token{1};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(seed + w);
      for (int i = 0; i < txns_per_writer; ++i) {
        const int64_t g = static_cast<int64_t>(rng.Next() % kGroups);
        const int64_t token = next_token.fetch_add(1);
        Transaction txn;
        txns_->Begin(&txn);
        bool ok = true;
        for (int64_t r = 0; r < 4 && ok; ++r) {
          Row row;
          ok = txns_->GetForUpdate(&txn, 3, g * 4 + r, &row).ok();
          if (ok) {
            row[1] = token;
            ok = txns_->Update(&txn, 3, g * 4 + r, row).ok();
          }
        }
        if (ok) {
          EXPECT_TRUE(txns_->Commit(&txn).ok());
        } else {
          (void)txns_->Rollback(&txn);  // lock timeout: abort and move on
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int s = 0; s < kScanners; ++s) {
    threads.emplace_back([&] {
      while (writers_left.load() > 0) {
        ReadView view = txns_->OpenReadView();
        std::vector<int64_t> vals(4 * kGroups, -1);
        Status st = txns_->Scan(view, 3, [&](int64_t pk, const Row& row) {
          vals[pk] = AsInt(row[1]);
          return true;
        });
        EXPECT_TRUE(st.ok()) << st.ToString();
        for (int g = 0; g < kGroups; ++g) {
          for (int r = 1; r < 4; ++r) {
            EXPECT_EQ(vals[g * 4], vals[g * 4 + r])
                << "torn multi-row transaction visible in group " << g;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST(MvccPruningTest, LongLivedSnapshotPinsVersionsAcrossCheckpoint) {
  ClusterOptions opts;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.CreateTable(KvSchema(1, "a")).ok());
  ASSERT_TRUE(cluster.BulkLoad(1, KvRows(10, 100)).ok());
  ASSERT_TRUE(cluster.Open().ok());
  auto* txns = cluster.rw()->txn_manager();
  RowTable* table = cluster.rw()->engine()->GetTable(1);

  // Pin a snapshot of the bulk state, then build up history on every row.
  ReadView pin = txns->OpenReadView();
  for (int round = 1; round <= 3; ++round) {
    for (int64_t pk = 0; pk < 10; ++pk) {
      ASSERT_TRUE(UpdateOne(txns, 1, pk, 1000 * round + pk).ok());
    }
  }
  EXPECT_EQ(table->versioned_row_count(), 10u);
  EXPECT_GE(table->MaxVersionChainLength(), 2u);

  // Checkpoint with the snapshot live: pruning must stop at the snapshot —
  // it still resolves the original values afterwards.
  ASSERT_TRUE(cluster.TriggerCheckpoint().ok());
  EXPECT_EQ(table->versioned_row_count(), 10u);
  Row row;
  ASSERT_TRUE(txns->Get(pin, 1, 0, &row).ok());
  EXPECT_EQ(AsInt(row[1]), 100);

  // Close the snapshot: the next checkpoint reclaims every pinned version —
  // chains return to length <= 1, i.e. every row serves from the tree alone.
  pin.Close();
  ASSERT_TRUE(cluster.TriggerCheckpoint().ok());
  EXPECT_EQ(table->versioned_row_count(), 0u);
  EXPECT_EQ(table->MaxVersionChainLength(), 0u);
  ASSERT_TRUE(txns->Get(1, 0, &row).ok());
  EXPECT_EQ(AsInt(row[1]), 3000);
}

TEST(RoMvccTest, RowEngineScanSeesAllOrNothingDuringStraddlingApply) {
  // Step the RO apply one redo record at a time (chunk_records = 1) across
  // a 4-row transaction: the raw replica pages become torn after the first
  // stepped record, but the row engine — reading at the pinned applied-VID
  // snapshot through the replica's version chains — must show all-or-none
  // of the transaction at every step. Reverting Phase#1 stamping to
  // apply-time visibility (or row reads to latest-applied) fails this test
  // at the intermediate steps.
  PolarFs fs;
  Catalog catalog;
  RwNode rw(&fs, &catalog);
  ASSERT_TRUE(rw.CreateTable(KvSchema(1, "a")).ok());
  ASSERT_TRUE(rw.BulkLoad(1, KvRows(4, 100)).ok());
  ASSERT_TRUE(rw.FinishLoad().ok());

  RoNodeOptions opts;
  opts.replication.chunk_records = 1;
  RoNode node("ro-step", &fs, &catalog, opts);
  ASSERT_TRUE(node.Boot().ok());
  ASSERT_TRUE(node.CatchUpNow().ok());  // seeds the pipeline cursor

  auto* txns = rw.txn_manager();
  Transaction txn;
  txns->Begin(&txn);
  for (int64_t pk = 0; pk < 4; ++pk) {
    Row row;
    ASSERT_TRUE(txns->GetForUpdate(&txn, 1, pk, &row).ok());
    row[1] = int64_t(777);
    ASSERT_TRUE(txns->Update(&txn, 1, pk, row).ok());
  }
  ASSERT_TRUE(txns->Commit(&txn).ok());

  auto scan_vals = [&] {
    std::vector<Row> out;
    EXPECT_TRUE(node.ExecuteRow(LScan(1, {0, 1}), &out).ok());
    std::vector<int64_t> vals;
    for (const Row& r : out) vals.push_back(AsInt(r[1]));
    return vals;
  };
  const std::vector<int64_t> all_old(4, 100);
  const std::vector<int64_t> all_new(4, 777);
  const Lsn tail = fs.log("redo")->written_lsn();  // 4 DML records + commit
  int steps = 0;
  bool saw_torn_pages = false;
  while (node.pipeline()->read_lsn() < tail) {
    ASSERT_TRUE(node.pipeline()->PollOnce().ok());
    ++steps;
    const std::vector<int64_t> vals = scan_vals();
    const bool committed = node.applied_vid() == txn.commit_vid();
    EXPECT_EQ(vals, committed ? all_new : all_old)
        << "torn multi-row apply visible to the row engine at step " << steps;
    if (!committed && node.pipeline()->parser()->records_applied() > 0) {
      // The raw replica state IS torn mid-apply — the chains, not luck,
      // provide the isolation above.
      Row raw;
      ASSERT_TRUE(node.engine()->GetTable(1)->Get(0, &raw).ok());
      if (AsInt(raw[1]) == 777) saw_torn_pages = true;
      EXPECT_GT(node.engine()->GetTable(1)->versioned_row_count(), 0u);
    }
  }
  EXPECT_GE(steps, 5);  // the apply really straddled poll boundaries
  EXPECT_TRUE(saw_torn_pages);
  EXPECT_EQ(node.applied_vid(), txn.commit_vid());
  EXPECT_EQ(scan_vals(), all_new);
}

TEST(RoMvccTest, RowEngineStressSeesNoTornTransactionsDuringReplication) {
  // The concurrent arm: RW writers commit 4-row group transactions while
  // the background pipeline replicates and RO row-engine scans (each at its
  // own pinned applied-VID snapshot) assert every group is uniform — the
  // RO-side counterpart of MultiRowTxnAtomicityUnderWriteHeavyStress.
  constexpr int kGroups = 8;
  constexpr int kWriters = 2;
  constexpr int kScanners = 2;
  ClusterOptions copts;
  Cluster cluster(copts);
  ASSERT_TRUE(cluster.CreateTable(KvSchema(1, "g")).ok());
  ASSERT_TRUE(cluster.BulkLoad(1, KvRows(4 * kGroups, 0)).ok());
  ASSERT_TRUE(cluster.Open().ok());
  auto* txns = cluster.rw()->txn_manager();
  RoNode* ro = cluster.ro(0);
  ASSERT_NE(ro, nullptr);

  const uint64_t seed = testing_util::TestSeed(77);
  const int txns_per_writer = testing_util::TestIters(150);
  SCOPED_TRACE(::testing::Message() << "IMCI_TEST_SEED=" << seed
                                    << " IMCI_TEST_ITERS=" << txns_per_writer
                                    << " reproduces this run");
  std::atomic<int> writers_left{kWriters};
  std::atomic<int64_t> next_token{1};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(seed + w);
      for (int i = 0; i < txns_per_writer; ++i) {
        const int64_t g = static_cast<int64_t>(rng.Next() % kGroups);
        const int64_t token = next_token.fetch_add(1);
        Transaction txn;
        txns->Begin(&txn);
        bool ok = true;
        for (int64_t r = 0; r < 4 && ok; ++r) {
          Row row;
          ok = txns->GetForUpdate(&txn, 1, g * 4 + r, &row).ok();
          if (ok) {
            row[1] = token;
            ok = txns->Update(&txn, 1, g * 4 + r, row).ok();
          }
        }
        if (ok) {
          EXPECT_TRUE(txns->Commit(&txn).ok());
        } else {
          (void)txns->Rollback(&txn);  // lock timeout: abort and move on
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  for (int s = 0; s < kScanners; ++s) {
    threads.emplace_back([&] {
      while (writers_left.load() > 0) {
        std::vector<Row> out;
        Status st = ro->ExecuteRow(LScan(1, {0, 1}), &out);
        EXPECT_TRUE(st.ok()) << st.ToString();
        ASSERT_EQ(out.size(), static_cast<size_t>(4 * kGroups));
        std::vector<int64_t> vals(4 * kGroups, -1);
        for (const Row& row : out) vals[AsInt(row[0])] = AsInt(row[1]);
        for (int g = 0; g < kGroups; ++g) {
          for (int r = 1; r < 4; ++r) {
            EXPECT_EQ(vals[g * 4], vals[g * 4 + r])
                << "torn replicated transaction visible in group " << g;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(ro->CatchUpNow().ok());
}

TEST(RoMvccTest, ReplicaChainsStampedThenPrunedByMaintenance) {
  // Replica version chains must not leak: once transactions are stamped and
  // no row-engine snapshot pins them, the pipeline's maintenance pass
  // (SnapshotRegistry watermark == applied VID) erases caught-up chains.
  PolarFs fs;
  Catalog catalog;
  RwNode rw(&fs, &catalog);
  ASSERT_TRUE(rw.CreateTable(KvSchema(1, "a")).ok());
  ASSERT_TRUE(rw.BulkLoad(1, KvRows(10, 100)).ok());
  ASSERT_TRUE(rw.FinishLoad().ok());

  RoNodeOptions opts;
  opts.replication.maintenance_interval = 1;  // maintenance on every poll
  RoNode node("ro-prune", &fs, &catalog, opts);
  ASSERT_TRUE(node.Boot().ok());
  ASSERT_TRUE(node.CatchUpNow().ok());

  auto* txns = rw.txn_manager();
  for (int round = 1; round <= 3; ++round) {
    for (int64_t pk = 0; pk < 10; ++pk) {
      ASSERT_TRUE(UpdateOne(txns, 1, pk, 1000 * round + pk).ok());
    }
  }
  const Lsn tail = fs.log("redo")->written_lsn();
  while (node.pipeline()->read_lsn() < tail) {
    ASSERT_TRUE(node.pipeline()->PollOnce().ok());
  }
  ASSERT_TRUE(node.pipeline()->PollOnce().ok());  // one more: maintenance
  RowTable* replica = node.engine()->GetTable(1);
  EXPECT_EQ(replica->versioned_row_count(), 0u);
  EXPECT_EQ(replica->MaxVersionChainLength(), 0u);
  std::vector<Row> out;
  ASSERT_TRUE(node.ExecuteRow(LScan(1, {0, 1}), &out).ok());
  ASSERT_EQ(out.size(), 10u);
  for (const Row& r : out) {
    EXPECT_EQ(AsInt(r[1]), 3000 + AsInt(r[0]));
  }
}

TEST_F(MvccIsolationTest, SlowScanNoLongerBlocksWriters) {
  // Pre-MVCC, RowTable::Scan held the shared latch for the whole scan, so a
  // writer (exclusive latch) stalled behind a slow reader. Scans now latch
  // per-step and rely on the snapshot for consistency: a writer must be
  // able to lock, update and COMMIT while a slow scan is still in flight.
  ASSERT_TRUE(rw_->CreateTable(KvSchema(4, "slow")).ok());
  const int64_t rows = 4 * static_cast<int64_t>(RowTable::kScanBatch);
  ASSERT_TRUE(rw_->BulkLoad(4, KvRows(rows, 0)).ok());

  std::atomic<bool> scan_started{false};
  std::atomic<bool> writer_done{false};
  std::atomic<bool> scan_finished{false};
  std::thread scanner([&] {
    ReadView view = txns_->OpenReadView();
    Status s = txns_->Scan(view, 4, [&](int64_t, const Row&) {
      scan_started.store(true);
      if (!writer_done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return true;
    });
    EXPECT_TRUE(s.ok());
    scan_finished.store(true);
  });
  while (!scan_started.load()) std::this_thread::yield();

  ASSERT_TRUE(UpdateOne(txns_, 4, 5, 42).ok());
  // The regression assertion: the commit landed while the scan was still
  // running (with the whole-scan latch it could only land after).
  EXPECT_FALSE(scan_finished.load())
      << "writer was blocked until the scan completed";
  writer_done.store(true);
  scanner.join();
  EXPECT_EQ(ReadV(4, 5), 42);
}

// One registry per node serves row plans, column plans and fragments. A
// fragment registers an explicit VID (the coordinator's common snapshot);
// below the bound a prune may already have used, it must be refused and
// leave nothing registered.
TEST(SnapshotRegistryTest, ExplicitVidBelowBoundIsRefused) {
  SnapshotRegistry reg;
  std::atomic<Vid> published{10};
  EXPECT_EQ(reg.Watermark(published), 10u);  // a prune could use 10 now
  EXPECT_FALSE(reg.OpenAt(9));
  EXPECT_EQ(reg.live_count(), 0u);
  EXPECT_TRUE(reg.OpenAt(10));
  EXPECT_TRUE(reg.OpenAt(15));  // above the published point: read-ahead
  EXPECT_EQ(reg.live_count(), 2u);
  EXPECT_EQ(reg.Watermark(published), 10u);
  reg.Close(10, published);
  reg.Close(15, published);
  published.store(20);
  EXPECT_EQ(reg.Watermark(published), 20u);
  EXPECT_FALSE(reg.OpenAt(15));
  EXPECT_FALSE(reg.OpenAt(19));
  EXPECT_TRUE(reg.OpenAt(20));
  reg.Close(20, published);
  EXPECT_EQ(reg.live_count(), 0u);
}

// The watermark never passes a live snapshot, whether Open sampled it or
// OpenAt accepted it — deterministically, then with a pruner computing
// watermarks while readers register and the published point advances.
TEST(SnapshotRegistryTest, WatermarkNeverExceedsARegisteredVid) {
  SnapshotRegistry reg;
  std::atomic<Vid> published{50};
  const Vid a = reg.Open(published);
  EXPECT_EQ(a, 50u);
  published.store(70);
  ASSERT_TRUE(reg.OpenAt(60));
  const Vid b = reg.Open(published);
  EXPECT_EQ(b, 70u);
  published.store(100);
  ASSERT_TRUE(reg.OpenAt(120));
  EXPECT_EQ(reg.Watermark(published), 50u);
  reg.Close(a, published);
  EXPECT_EQ(reg.Watermark(published), 60u);
  reg.Close(60, published);
  EXPECT_EQ(reg.Watermark(published), 70u);
  reg.Close(b, published);
  EXPECT_EQ(reg.Watermark(published), 100u);  // 120 lies above published
  reg.Close(120, published);
  EXPECT_EQ(reg.live_count(), 0u);

  std::atomic<bool> stop{false};
  std::atomic<Vid> last_wm{0};  // newest watermark the pruner computed
  std::thread publisher([&] {
    while (!stop.load()) {
      published.fetch_add(1);
      std::this_thread::yield();
    }
  });
  std::thread pruner([&] {
    while (!stop.load()) last_wm.store(reg.Watermark(published));
  });
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(91 + r);
      for (int i = 0; i < 2000; ++i) {
        Vid vid = 0;
        if (i % 2 == 0) {
          vid = reg.Open(published);
        } else {
          // A fragment's VID: somewhere around the published point.
          vid = published.load() + rng.Next() % 8;
          vid = vid >= 4 ? vid - 4 : 0;
          if (!reg.OpenAt(vid)) continue;
        }
        for (int k = 0; k < 3; ++k) {
          if (last_wm.load() > vid || reg.Watermark(published) > vid) {
            violations.fetch_add(1);
          }
        }
        reg.Close(vid, published);
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  publisher.join();
  pruner.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(reg.live_count(), 0u);
}

}  // namespace
}  // namespace imci
