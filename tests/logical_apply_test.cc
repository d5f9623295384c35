// End-to-end tests for the alternative Phase#1 (§3.2's Binlog strawman made
// real): the RW node writes logical row events into the shared segmented
// binlog, and an RO node's pipeline consumes them through LogicalApplySource
// instead of reconstructing DMLs from physical REDO. Both propagation paths
// must converge to identical column-index contents — the property that makes
// the Fig. 11 comparison meaningful.
#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <thread>

#include "common/rng.h"
#include "tests/test_util.h"

namespace imci {
namespace {

using testing_util::Canonicalize;

std::shared_ptr<const Schema> SimpleSchema() {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  cols.push_back({"s", DataType::kString, true, true});
  return std::make_shared<Schema>(1, "t1", cols, 0);
}

class LogicalApplyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.initial_ro_nodes = 1;
    opts.ro.imci.row_group_size = 256;
    opts.ro.replication.source = ApplySource::kLogicalBinlog;
    cluster_ = std::make_unique<Cluster>(opts);
    ASSERT_TRUE(cluster_->CreateTable(SimpleSchema()).ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 100; ++i) {
      rows.push_back({i, i * 2, std::string("base")});
    }
    ASSERT_TRUE(cluster_->BulkLoad(1, std::move(rows)).ok());
    ASSERT_TRUE(cluster_->Open().ok());
    txns_ = cluster_->rw()->txn_manager();
    txns_->set_binlog_enabled(true);
    ro_ = cluster_->ro(0);
  }

  std::vector<Row> RwTruth() {
    std::vector<Row> rows;
    (void)cluster_->rw()->engine()->GetTable(1)->Scan(
        [&](int64_t, const Row& row) {
          rows.push_back(row);
          return true;
        });
    return rows;
  }

  LogicalRef ScanAll() {
    std::vector<int> cols(3);
    std::iota(cols.begin(), cols.end(), 0);
    return LScan(1, std::move(cols));
  }

  std::unique_ptr<Cluster> cluster_;
  TransactionManager* txns_ = nullptr;
  RoNode* ro_ = nullptr;
};

TEST_F(LogicalApplyTest, InsertUpdateDeletePropagateThroughBinlog) {
  Transaction txn;
  txns_->Begin(&txn);
  ASSERT_TRUE(
      txns_->Insert(&txn, 1, {int64_t(1000), int64_t(1), std::string("new")})
          .ok());
  ASSERT_TRUE(
      txns_->Update(&txn, 1, 5, {int64_t(5), int64_t(999), Value{}}).ok());
  ASSERT_TRUE(txns_->Delete(&txn, 1, 7).ok());
  ASSERT_TRUE(txns_->Commit(&txn).ok());

  ASSERT_TRUE(ro_->CatchUpNow().ok());
  // The logical pipeline assigned the *same* commit VID the RW did, so read
  // views line up exactly with REDO reuse.
  EXPECT_EQ(ro_->applied_vid(), txn.commit_vid());
  EXPECT_EQ(ro_->pipeline()->committed_txns(), 1u);
  EXPECT_EQ(ro_->pipeline()->source(), ApplySource::kLogicalBinlog);

  std::vector<Row> col_rows;
  ASSERT_TRUE(ro_->ExecuteColumn(ScanAll(), &col_rows).ok());
  EXPECT_EQ(Canonicalize(col_rows), Canonicalize(RwTruth()));

  Row row;
  ColumnIndex* index = ro_->imci()->GetIndex(1);
  ASSERT_TRUE(index->LookupByPk(5, ro_->applied_vid(), &row).ok());
  EXPECT_EQ(AsInt(row[1]), 999);
  EXPECT_TRUE(index->LookupByPk(7, ro_->applied_vid(), &row).IsNotFound());
}

TEST_F(LogicalApplyTest, AbortedTransactionsNeverReachTheBinlog) {
  Transaction txn;
  txns_->Begin(&txn);
  ASSERT_TRUE(
      txns_->Insert(&txn, 1, {int64_t(2000), int64_t(1), Value{}}).ok());
  ASSERT_TRUE(txns_->Rollback(&txn).ok());
  EXPECT_EQ(cluster_->rw()->binlog()->txns_written(), 0u);
  ASSERT_TRUE(ro_->CatchUpNow().ok());
  EXPECT_EQ(ro_->pipeline()->committed_txns(), 0u);
  std::vector<Row> col_rows;
  ASSERT_TRUE(ro_->ExecuteColumn(ScanAll(), &col_rows).ok());
  EXPECT_EQ(col_rows.size(), 100u);  // only the bulk-loaded base
}

TEST_F(LogicalApplyTest, StrongReadsWaitOnCommitVidsAcrossLsnSpaces) {
  // Binlog LSNs are a different space from the RW's redo LSN, so no LSN
  // can fence a logical-apply node. The proxy fences on the commit VID
  // instead, which both logs carry: the read waits until the node's applied
  // VID reaches the RW's commit VID sampled at submission (regression test:
  // comparing redo LSNs across spaces would spin forever).
  Transaction txn;
  txns_->Begin(&txn);
  ASSERT_TRUE(
      txns_->Insert(&txn, 1, {int64_t(3000), int64_t(3), Value{}}).ok());
  ASSERT_TRUE(txns_->Commit(&txn).ok());
  auto plan =
      LAgg(LScan(1, {0}), {}, {AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> out;
  ASSERT_TRUE(cluster_->proxy()
                  ->ExecuteQuery(plan, &out, Consistency::kStrong)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(AsInt(out[0][0]), 101);  // read-your-writes observed the commit
}

TEST_F(LogicalApplyTest, StrongReadDoesNotWaitOnAnOpenTransaction) {
  // The binlog arm shares the proxy's commit-VID fence: a transaction still
  // open at submission owes the reader nothing, so the read returns at once
  // with the committed state and without the open transaction's row.
  Transaction open;
  txns_->Begin(&open);
  ASSERT_TRUE(
      txns_->Insert(&open, 1, {int64_t(3000), int64_t(3), Value{}}).ok());
  auto plan =
      LAgg(LScan(1, {0}), {}, {AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> out;
  ASSERT_TRUE(cluster_->proxy()
                  ->ExecuteQuery(plan, &out, Consistency::kStrong)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(AsInt(out[0][0]), 100);
  ASSERT_TRUE(txns_->Commit(&open).ok());
  out.clear();
  ASSERT_TRUE(cluster_->proxy()
                  ->ExecuteQuery(plan, &out, Consistency::kStrong)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(AsInt(out[0][0]), 101);
}

TEST(BinlogRecycleTest, TruncatesBelowTheSlowestLogicalCursorAndNoFurther) {
  // Small segments so a short run seals several; recycling is
  // segment-granular like the redo path.
  ClusterOptions opts;
  opts.fs.log_segment_bytes = 512;
  opts.initial_ro_nodes = 1;
  opts.ro.imci.row_group_size = 256;
  opts.ro.replication.source = ApplySource::kLogicalBinlog;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.CreateTable(SimpleSchema()).ok());
  ASSERT_TRUE(cluster.BulkLoad(1, {{int64_t(0), int64_t(0), Value{}}}).ok());
  ASSERT_TRUE(cluster.Open().ok());
  auto* txns = cluster.rw()->txn_manager();

  auto churn = [&](int64_t base, int n) {
    for (int i = 0; i < n; ++i) {
      Transaction txn;
      txns->Begin(&txn);
      ASSERT_TRUE(txns->Insert(&txn, 1,
                               {base + i, int64_t(i),
                                std::string("payload-") + std::to_string(i)})
                      .ok());
      ASSERT_TRUE(txns->Commit(&txn).ok());
    }
  };
  churn(1000, 120);
  RoNode* ro = cluster.ro(0);
  ASSERT_TRUE(ro->CatchUpNow().ok());

  LogStore* binlog = cluster.fs()->log("binlog");
  const size_t segments_before = binlog->segment_count();
  ASSERT_GT(segments_before, 2u);

  // Direct recycle: everything below the (caught-up) logical cursor except
  // the active segment goes; the watermark never outruns the cursor.
  Lsn upto = 0;
  ASSERT_TRUE(cluster.RecycleBinlog(&upto).ok());
  EXPECT_GT(upto, 0u);
  EXPECT_LE(upto, ro->pipeline()->read_lsn());
  EXPECT_LT(binlog->segment_count(), segments_before);

  // The attached consumer keeps working across the truncation: more commits
  // still propagate and the column index still matches the RW truth.
  churn(5000, 40);
  ASSERT_TRUE(ro->CatchUpNow().ok());
  std::vector<Row> col_rows, truth;
  (void)cluster.rw()->engine()->GetTable(1)->Scan(
      [&](int64_t, const Row& row) {
        truth.push_back(row);
        return true;
      });
  ASSERT_TRUE(ro->ExecuteColumn(LScan(1, {0, 1, 2}), &col_rows).ok());
  EXPECT_EQ(Canonicalize(col_rows), Canonicalize(truth));

  // A *new* logical-apply node replays from LSN 0 over the base state; the
  // live log lost the recycled prefix, but the archive tier sealed it
  // before truncation, so the late joiner bootstraps across the gap and
  // converges to the same contents (mid-run scale-out on the binlog arm).
  RoNode* late = nullptr;
  ASSERT_TRUE(cluster.AddRoNode(&late).ok());
  ASSERT_TRUE(late->CatchUpNow().ok());
  EXPECT_EQ(late->applied_vid(), ro->applied_vid());
  std::vector<Row> late_rows;
  ASSERT_TRUE(late->ExecuteColumn(LScan(1, {0, 1, 2}), &late_rows).ok());
  EXPECT_EQ(Canonicalize(late_rows), Canonicalize(truth))
      << "late logical joiner diverged after archive bootstrap";
}

TEST(BinlogRecycleTest, LateJoinRefusedWhenArchiveDisabled) {
  // The pre-archive behavior, now opt-out: without the archive tier,
  // recycling destroys history and a post-recycle logical-apply boot must
  // refuse rather than silently skip the truncated transactions.
  ClusterOptions opts;
  opts.fs.log_segment_bytes = 512;
  opts.fs.enable_archive = false;
  opts.initial_ro_nodes = 1;
  opts.ro.imci.row_group_size = 256;
  opts.ro.replication.source = ApplySource::kLogicalBinlog;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.CreateTable(SimpleSchema()).ok());
  ASSERT_TRUE(cluster.BulkLoad(1, {{int64_t(0), int64_t(0), Value{}}}).ok());
  ASSERT_TRUE(cluster.Open().ok());
  auto* txns = cluster.rw()->txn_manager();
  for (int i = 0; i < 120; ++i) {
    Transaction txn;
    txns->Begin(&txn);
    ASSERT_TRUE(txns->Insert(&txn, 1,
                             {int64_t(1000 + i), int64_t(i),
                              std::string("payload-") + std::to_string(i)})
                    .ok());
    ASSERT_TRUE(txns->Commit(&txn).ok());
  }
  ASSERT_TRUE(cluster.ro(0)->CatchUpNow().ok());
  Lsn upto = 0;
  ASSERT_TRUE(cluster.RecycleBinlog(&upto).ok());
  ASSERT_GT(upto, 0u);
  RoNode* late = nullptr;
  EXPECT_FALSE(cluster.AddRoNode(&late).ok());
}

TEST(BinlogRecycleTest, CheckpointTriggerRecyclesTheBinlogArm) {
  ClusterOptions opts;
  opts.fs.log_segment_bytes = 512;
  opts.initial_ro_nodes = 1;
  opts.ro.imci.row_group_size = 256;
  opts.ro.replication.source = ApplySource::kLogicalBinlog;
  Cluster cluster(opts);
  ASSERT_TRUE(cluster.CreateTable(SimpleSchema()).ok());
  ASSERT_TRUE(cluster.BulkLoad(1, {{int64_t(0), int64_t(0), Value{}}}).ok());
  ASSERT_TRUE(cluster.Open().ok());
  auto* txns = cluster.rw()->txn_manager();
  for (int i = 0; i < 120; ++i) {
    Transaction txn;
    txns->Begin(&txn);
    ASSERT_TRUE(txns->Insert(&txn, 1,
                             {int64_t(1000 + i), int64_t(i),
                              std::string("payload-") + std::to_string(i)})
                    .ok());
    ASSERT_TRUE(txns->Commit(&txn).ok());
  }
  ASSERT_TRUE(cluster.ro(0)->CatchUpNow().ok());
  LogStore* binlog = cluster.fs()->log("binlog");
  const size_t segments_before = binlog->segment_count();
  ASSERT_GT(segments_before, 2u);
  // The periodic checkpoint cadence recycles the binlog arm too — long runs
  // with binlog enabled no longer leak segments.
  ASSERT_TRUE(cluster.TriggerCheckpoint().ok());
  EXPECT_GT(binlog->truncated_lsn(), 0u);
  EXPECT_LT(binlog->segment_count(), segments_before);

  // Wait for the leader's (asynchronous) checkpoint to land, then trigger
  // again: a logical leader's manifest records start_lsn = 0 — its cursor is
  // a *binlog-space* LSN and must never be applied to the redo log's
  // recycling (the two logs' LSN spaces are unrelated).
  Vid csn = 0;
  Lsn manifest_start = 0;
  for (int i = 0; i < 2000; ++i) {
    if (ImciCheckpoint::ReadLatestManifest(cluster.fs(), &csn,
                                           &manifest_start, nullptr)
            .ok()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(csn, 0u);
  EXPECT_EQ(manifest_start, 0u);
  ASSERT_TRUE(cluster.TriggerCheckpoint().ok());
  EXPECT_EQ(cluster.fs()->log("redo")->truncated_lsn(), 0u);
}

TEST_F(LogicalApplyTest, BothPropagationPathsConvergeToIdenticalContents) {
  // Mixed churn through the RW node.
  Rng rng(testing_util::TestSeed(42));
  const int rounds = testing_util::TestIters(120);
  for (int i = 0; i < rounds; ++i) {
    Transaction txn;
    txns_->Begin(&txn);
    const int64_t pk = static_cast<int64_t>(rng.Next() % 100);
    Status s;
    switch (rng.Next() % 3) {
      case 0:
        s = txns_->Insert(&txn, 1,
                          {int64_t(10000 + i), int64_t(i),
                           std::string("ins-") + std::to_string(i)});
        break;
      case 1:
        s = txns_->Update(&txn, 1, pk,
                          {pk, int64_t(i * 7), std::string("upd")});
        break;
      default:
        s = txns_->Delete(&txn, 1, pk);
        break;
    }
    if (s.ok()) {
      ASSERT_TRUE(txns_->Commit(&txn).ok());
    } else {
      ASSERT_TRUE(txns_->Rollback(&txn).ok());
    }
  }

  // The cluster's RO consumed the *binlog*; boot a second node against the
  // same shared storage that consumes the *redo* log (the paper's design).
  ASSERT_TRUE(ro_->CatchUpNow().ok());
  RoNodeOptions redo_opts;
  redo_opts.imci.row_group_size = 256;
  redo_opts.replication.source = ApplySource::kRedoReuse;
  RoNode redo_node("redo-arm", cluster_->fs(), cluster_->catalog(),
                   redo_opts);
  ASSERT_TRUE(redo_node.Boot().ok());
  ASSERT_TRUE(redo_node.CatchUpNow().ok());

  // Same read views, identical contents, both equal to the RW truth.
  EXPECT_EQ(ro_->applied_vid(), redo_node.applied_vid());
  const auto truth = Canonicalize(RwTruth());
  std::vector<Row> binlog_rows, redo_rows;
  ASSERT_TRUE(ro_->ExecuteColumn(ScanAll(), &binlog_rows).ok());
  ASSERT_TRUE(redo_node.ExecuteColumn(ScanAll(), &redo_rows).ok());
  EXPECT_EQ(Canonicalize(binlog_rows), truth) << "logical-apply arm diverged";
  EXPECT_EQ(Canonicalize(redo_rows), truth) << "redo-reuse arm diverged";
}

}  // namespace
}  // namespace imci
