#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "tests/test_util.h"

namespace imci {
namespace {

std::shared_ptr<const Schema> SimpleSchema() {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  return std::make_shared<Schema>(1, "t1", cols, 0);
}

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions opts;
    opts.initial_ro_nodes = 2;
    opts.ro.imci.row_group_size = 256;
    cluster_ = std::make_unique<Cluster>(opts);
    ASSERT_TRUE(cluster_->CreateTable(SimpleSchema()).ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 1000; ++i) rows.push_back({i, i * 2});
    ASSERT_TRUE(cluster_->BulkLoad(1, std::move(rows)).ok());
    ASSERT_TRUE(cluster_->Open().ok());
  }
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ClusterTest, BulkLoadedDataVisibleOnAllRoNodes) {
  auto plan = LAgg(LScan(1, {0, 1}), {},
                   {AggSpec{AggKind::kCountStar, nullptr},
                    AggSpec{AggKind::kSum, Col(1, DataType::kInt64)}});
  for (RoNode* ro : cluster_->ro_nodes()) {
    std::vector<Row> out;
    ASSERT_TRUE(ro->ExecuteColumn(plan, &out).ok());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(AsInt(out[0][0]), 1000);
    EXPECT_DOUBLE_EQ(NumericValue(out[0][1]), 999.0 * 1000.0);
  }
}

TEST_F(ClusterTest, ProxyBalancesByActiveSessions) {
  RoNode* a = cluster_->ro(0);
  RoNode* b = cluster_->ro(1);
  a->EnterSession();
  a->EnterSession();
  EXPECT_EQ(cluster_->proxy()->PickRo(), b);
  b->EnterSession();
  b->EnterSession();
  b->EnterSession();
  EXPECT_EQ(cluster_->proxy()->PickRo(), a);
  a->LeaveSession();
  a->LeaveSession();
  b->LeaveSession();
  b->LeaveSession();
  b->LeaveSession();
}

TEST_F(ClusterTest, StrongConsistencyReadsYourWrites) {
  auto* txns = cluster_->rw()->txn_manager();
  for (int round = 0; round < 20; ++round) {
    Transaction txn;
    txns->Begin(&txn);
    ASSERT_TRUE(
        txns->Insert(&txn, 1, {int64_t(10000 + round), int64_t(1)}).ok());
    ASSERT_TRUE(txns->Commit(&txn).ok());
    // A strong read issued right after commit must observe it (§6.4).
    auto plan = LAgg(
        LScan(1, {0}, Ge(Col(0, DataType::kInt64), ConstInt(10000))), {},
        {AggSpec{AggKind::kCountStar, nullptr}});
    std::vector<Row> out;
    ASSERT_TRUE(cluster_->proxy()
                    ->ExecuteQuery(plan, &out, Consistency::kStrong)
                    .ok());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(AsInt(out[0][0]), round + 1);
  }
}

// Issues a strong COUNT(*) over table 1 on another thread and reports
// whether it returned within two seconds. A read still blocked then is
// released by `unblock` (a later commit moves the fence), so a regression
// fails the test instead of hanging it.
bool StrongCountReturns(Cluster* cluster, const std::function<void()>& unblock,
                        int64_t* count) {
  auto plan =
      LAgg(LScan(1, {0}), {}, {AggSpec{AggKind::kCountStar, nullptr}});
  std::atomic<bool> done{false};
  Status status;
  std::vector<Row> out;
  std::thread reader([&] {
    status = cluster->proxy()->ExecuteQuery(plan, &out, Consistency::kStrong);
    done.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool returned = done.load();
  if (!returned) unblock();
  reader.join();
  EXPECT_TRUE(status.ok()) << status.ToString();
  *count = out.size() == 1 ? AsInt(out[0][0]) : -1;
  return returned;
}

// Commit-ahead log shipping puts an open transaction's DML records in the
// redo log before its commit. They must not hold a strong read back: the
// read is owed only what was committed before it was submitted.
TEST_F(ClusterTest, StrongReadDoesNotWaitOnAnOpenTransaction) {
  auto* txns = cluster_->rw()->txn_manager();
  Transaction open;
  txns->Begin(&open);
  ASSERT_TRUE(txns->Insert(&open, 1, {int64_t(30000), int64_t(1)}).ok());
  bool committed = false;
  auto commit = [&] {
    ASSERT_TRUE(txns->Commit(&open).ok());
    committed = true;
  };
  int64_t count = 0;
  EXPECT_TRUE(StrongCountReturns(cluster_.get(), commit, &count))
      << "strong read blocked behind an uncommitted transaction";
  if (!committed) {
    EXPECT_EQ(count, 1000);  // the open transaction's row is not visible
    commit();
  }
}

// A rollback appends compensation records and no commit. A strong read
// issued after it must return without waiting for some later commit.
TEST_F(ClusterTest, StrongReadAfterRollbackNeedsNoLaterCommit) {
  auto* txns = cluster_->rw()->txn_manager();
  Transaction txn;
  txns->Begin(&txn);
  ASSERT_TRUE(txns->Insert(&txn, 1, {int64_t(30000), int64_t(1)}).ok());
  ASSERT_TRUE(txns->Rollback(&txn).ok());
  auto later_commit = [&] {
    Transaction next;
    txns->Begin(&next);
    ASSERT_TRUE(txns->Insert(&next, 1, {int64_t(30001), int64_t(1)}).ok());
    ASSERT_TRUE(txns->Commit(&next).ok());
  };
  int64_t count = 0;
  ASSERT_TRUE(StrongCountReturns(cluster_.get(), later_commit, &count))
      << "strong read blocked after a rollback until a later commit";
  EXPECT_EQ(count, 1000);
}

TEST_F(ClusterTest, LeaderDesignationAndFailover) {
  EXPECT_TRUE(cluster_->ro(0)->is_leader());
  EXPECT_FALSE(cluster_->ro(1)->is_leader());
  ASSERT_TRUE(cluster_->RemoveRoNode(0).ok());
  ASSERT_NE(cluster_->leader(), nullptr);
  EXPECT_TRUE(cluster_->ro(0)->is_leader());
}

TEST_F(ClusterTest, ScaleOutFromCheckpointAndCatchUp) {
  auto* txns = cluster_->rw()->txn_manager();
  // Apply some post-load churn.
  for (int i = 0; i < 200; ++i) {
    Transaction txn;
    txns->Begin(&txn);
    ASSERT_TRUE(txns->Insert(&txn, 1, {int64_t(5000 + i), int64_t(i)}).ok());
    ASSERT_TRUE(txns->Commit(&txn).ok());
  }
  for (RoNode* ro : cluster_->ro_nodes()) {
    ASSERT_TRUE(ro->CatchUpNow().ok());
  }
  // Leader takes a checkpoint.
  ASSERT_TRUE(cluster_->TriggerCheckpoint().ok());
  // Wait for the background coordinator to fulfil it.
  for (int i = 0; i < 100; ++i) {
    std::string cur;
    if (cluster_->fs()->ReadFile("imci_ckpt/CURRENT", &cur).ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // More churn after the checkpoint.
  for (int i = 0; i < 100; ++i) {
    Transaction txn;
    txns->Begin(&txn);
    ASSERT_TRUE(txns->Insert(&txn, 1, {int64_t(7000 + i), int64_t(i)}).ok());
    ASSERT_TRUE(txns->Commit(&txn).ok());
  }
  // Scale out: the new node boots from the checkpoint and catches up.
  RoNode* fresh = nullptr;
  ASSERT_TRUE(cluster_->AddRoNode(&fresh).ok());
  ASSERT_TRUE(fresh->CatchUpNow().ok());
  auto plan = LAgg(LScan(1, {0}), {},
                   {AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> out;
  ASSERT_TRUE(fresh->ExecuteColumn(plan, &out).ok());
  EXPECT_EQ(AsInt(out[0][0]), 1300);
  // And it serves the same answer as an established node.
  std::vector<Row> ref;
  RoNode* old_node = cluster_->ro(0);
  ASSERT_TRUE(old_node->CatchUpNow().ok());
  ASSERT_TRUE(old_node->ExecuteColumn(plan, &ref).ok());
  EXPECT_EQ(AsInt(ref[0][0]), 1300);
}

TEST_F(ClusterTest, ScaleOutWithoutCheckpointRebuildsFromRowStore) {
  RoNode* fresh = nullptr;
  ASSERT_TRUE(cluster_->AddRoNode(&fresh).ok());
  ASSERT_TRUE(fresh->CatchUpNow().ok());
  auto plan = LAgg(LScan(1, {0}), {},
                   {AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> out;
  ASSERT_TRUE(fresh->ExecuteColumn(plan, &out).ok());
  EXPECT_EQ(AsInt(out[0][0]), 1000);
}

TEST(LogRecycleTest, CheckpointTruncatesRedoSegmentsAndRoStillBootsAndCatchesUp) {
  ClusterOptions opts;
  opts.initial_ro_nodes = 1;
  opts.ro.imci.row_group_size = 256;
  opts.fs.log_segment_bytes = 4096;  // small segments: churn spans many
  Cluster cluster(opts);
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  ASSERT_TRUE(
      cluster.CreateTable(std::make_shared<Schema>(1, "t1", cols, 0)).ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 200; ++i) rows.push_back({i, i});
  ASSERT_TRUE(cluster.BulkLoad(1, std::move(rows)).ok());
  ASSERT_TRUE(cluster.Open().ok());

  auto* txns = cluster.rw()->txn_manager();
  auto churn = [&](int64_t base, int n) {
    for (int i = 0; i < n; ++i) {
      Transaction txn;
      txns->Begin(&txn);
      ASSERT_TRUE(txns->Insert(&txn, 1, {base + i, int64_t(i)}).ok());
      ASSERT_TRUE(txns->Commit(&txn).ok());
    }
  };
  churn(5000, 400);
  RoNode* leader = cluster.leader();
  ASSERT_TRUE(leader->CatchUpNow().ok());
  const size_t segments_before =
      cluster.fs()->ListFiles("log/redo/seg_").size();
  ASSERT_GT(segments_before, 2u);

  // Leader checkpoints (quiesced), then the cluster recycles the log (§7).
  leader->StopReplication();
  ASSERT_TRUE(leader->pipeline()->TakeCheckpoint(1).ok());
  leader->StartReplication();
  Lsn recycled_upto = 0;
  ASSERT_TRUE(cluster.RecycleRedoLog(&recycled_upto).ok());
  EXPECT_GT(recycled_upto, 0u);
  const size_t segments_after =
      cluster.fs()->ListFiles("log/redo/seg_").size();
  EXPECT_LT(segments_after, segments_before);
  EXPECT_EQ(cluster.fs()->log("redo")->truncated_lsn(), recycled_upto);

  // Post-checkpoint churn, then scale-out: the new node must boot from the
  // checkpoint and catch up from its LSN over the recycled log.
  churn(9000, 150);
  RoNode* fresh = nullptr;
  ASSERT_TRUE(cluster.AddRoNode(&fresh).ok());
  ASSERT_TRUE(fresh->CatchUpNow().ok());
  auto plan =
      LAgg(LScan(1, {0}), {}, {AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> out;
  ASSERT_TRUE(fresh->ExecuteColumn(plan, &out).ok());
  EXPECT_EQ(AsInt(out[0][0]), 200 + 400 + 150);
  EXPECT_EQ(
      static_cast<uint64_t>(AsInt(out[0][0])),
      cluster.rw()->engine()->GetTable(1)->row_count());
}

TEST(CheckpointBootTest, TailReplaySkipsTransactionsAlreadyFoldedIntoCheckpoint) {
  // A checkpoint taken while a transaction is in flight records a start_lsn
  // *before* that transaction's first record — i.e. before commits that ARE
  // folded into the checkpoint. A node booting from it re-reads those
  // commits and must skip them by VID, or it double-applies (regression
  // test: the skip filter used to be assigned after the pipeline had
  // already copied its options, so it never took effect).
  ClusterOptions opts;
  opts.initial_ro_nodes = 1;
  opts.ro.imci.row_group_size = 256;
  Cluster cluster(opts);
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  ASSERT_TRUE(
      cluster.CreateTable(std::make_shared<Schema>(1, "t1", cols, 0)).ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) rows.push_back({i, i});
  ASSERT_TRUE(cluster.BulkLoad(1, std::move(rows)).ok());
  ASSERT_TRUE(cluster.Open().ok());
  auto* txns = cluster.rw()->txn_manager();

  // A and C ship their DMLs (commit-ahead) but stay in flight...
  Transaction a, c;
  txns->Begin(&a);
  ASSERT_TRUE(txns->Insert(&a, 1, {int64_t(100), int64_t(1)}).ok());
  txns->Begin(&c);
  ASSERT_TRUE(txns->Insert(&c, 1, {int64_t(300), int64_t(3)}).ok());
  // ...while B commits behind them in the log.
  Transaction b;
  txns->Begin(&b);
  ASSERT_TRUE(txns->Insert(&b, 1, {int64_t(200), int64_t(2)}).ok());
  ASSERT_TRUE(txns->Commit(&b).ok());

  RoNode* leader = cluster.leader();
  leader->StopReplication();
  ASSERT_TRUE(leader->CatchUpNow().ok());
  // Checkpoint now: csn covers B; A and C travel as in-flight buffers.
  ASSERT_TRUE(leader->pipeline()->TakeCheckpoint(1).ok());
  // After the checkpoint, A commits and C aborts.
  ASSERT_TRUE(txns->Commit(&a).ok());
  ASSERT_TRUE(txns->Rollback(&c).ok());

  RoNode* fresh = nullptr;
  ASSERT_TRUE(cluster.AddRoNode(&fresh).ok());
  ASSERT_TRUE(fresh->CatchUpNow().ok());
  auto plan =
      LAgg(LScan(1, {0}), {}, {AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> out;
  ASSERT_TRUE(fresh->ExecuteColumn(plan, &out).ok());
  // 10 bulk + A + B: B applied exactly once, A's restored buffer applied on
  // its commit, C's restored buffer discarded on its abort.
  EXPECT_EQ(AsInt(out[0][0]), 12);
  Row r;
  EXPECT_TRUE(fresh->imci()->GetIndex(1)
                  ->LookupByPk(100, fresh->applied_vid(), &r).ok());
  EXPECT_TRUE(fresh->imci()->GetIndex(1)
                  ->LookupByPk(300, fresh->applied_vid(), &r).IsNotFound());
}

TEST_F(ClusterTest, VisibilityDelayIsMeasured) {
  auto* txns = cluster_->rw()->txn_manager();
  for (int i = 0; i < 50; ++i) {
    Transaction txn;
    txns->Begin(&txn);
    ASSERT_TRUE(txns->Insert(&txn, 1, {int64_t(20000 + i), int64_t(i)}).ok());
    ASSERT_TRUE(txns->Commit(&txn).ok());
  }
  RoNode* ro = cluster_->ro(0);
  ASSERT_TRUE(ro->CatchUpNow().ok());
  EXPECT_GT(ro->pipeline()->vd_histogram()->Count(), 0u);
  // Visibility delay at this scale should be well under a second.
  EXPECT_LT(ro->pipeline()->vd_histogram()->Percentile(0.99), 1'000'000u);
}

// Optimizer statistics sample every group's Pack Meta, including the tail
// group that Phase#2 appliers are still extending: the read has to take the
// meta lock (the tsan preset reports the race otherwise).
TEST_F(ClusterTest, RefreshStatsRunsAlongsideReplicatedInserts) {
  RoNode* ro = cluster_->ro(0);
  std::atomic<bool> done{false};
  std::thread refresher([&] {
    while (!done.load()) ro->RefreshStats();
  });
  auto* txns = cluster_->rw()->txn_manager();
  for (int i = 0; i < 300; ++i) {
    Transaction txn;
    txns->Begin(&txn);
    EXPECT_TRUE(txns->Insert(&txn, 1, {int64_t(20000 + i), int64_t(i)}).ok());
    EXPECT_TRUE(txns->Commit(&txn).ok());
  }
  EXPECT_TRUE(ro->CatchUpNow().ok());
  done.store(true);
  refresher.join();
  ro->RefreshStats();
  const TableStats* ts = ro->stats()->Get(1);
  ASSERT_NE(ts, nullptr);
  EXPECT_GE(ts->row_count, 1300u);
  ASSERT_TRUE(ts->cols[0].has_range);
  EXPECT_EQ(ts->cols[0].max, 20299);
}

}  // namespace
}  // namespace imci
