// Randomized fault storm: EVERY instrumented storage seam armed at once with
// seeded low-probability policies — IO failures on the fallible paths, torn
// writes on the log append path (the one seam whose recovery handles tears),
// latency spikes on the read paths — while a concurrent insert-only workload
// hammers the RW commit path. No single-seam test can exercise the
// *interactions*: a torn append under a poisoned fsync, a refused commit
// record racing a retried one, a latency spike widening a group-commit batch
// that then fails.
//
// The oracle stays simple under all of it: each thread inserts strictly
// sequential pks in its own range and never advances past a pk until its
// commit is acknowledged, so per-thread pk order equals commit-LSN order.
// After the storm the node "reboots" (ReopenLogs runs torn-tail detection and
// trims to the good prefix — the in-memory analogue of crash recovery), and
// the recovered state per thread must be an exact contiguous prefix of that
// thread's acknowledged sequence: torn-below-durable records may shorten the
// prefix (an acknowledged commit can be lost to a tear — that is what tears
// do), but a gap, a reordering, a value mismatch, or a never-acknowledged row
// is a bug in some seam's failure handling.
//
// Seeded via IMCI_TEST_SEED (the nightly job randomizes and echoes it); a
// failure replays bit-for-bit with the same seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "log/log_store.h"
#include "tests/test_util.h"

namespace imci {
namespace {

std::shared_ptr<const Schema> StormSchema() {
  std::vector<ColumnDef> cols;
  cols.push_back({"id", DataType::kInt64, false, true});
  cols.push_back({"v", DataType::kInt64, false, true});
  return std::make_shared<Schema>(1, "storm", cols, 0);
}

class FaultStormTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Registry::Instance().Reset(); }
};

TEST_F(FaultStormTest, RecoveredStateIsPerThreadAckedPrefixUnderFullStorm) {
  const uint64_t seed = testing_util::TestSeed(7777);
  const int per_thread = testing_util::TestIters(120);
  SCOPED_TRACE(::testing::Message() << "IMCI_TEST_SEED=" << seed
                                    << " IMCI_TEST_ITERS=" << per_thread
                                    << " reproduces this storm");

  PolarFs fs;
  Catalog catalog;
  RwNode rw(&fs, &catalog);
  ASSERT_TRUE(rw.CreateTable(StormSchema()).ok());
  std::vector<Row> base;
  for (int64_t pk = 0; pk < 20; ++pk) base.push_back({pk, pk});
  ASSERT_TRUE(rw.BulkLoad(1, base).ok());
  ASSERT_TRUE(rw.FinishLoad().ok());

  auto& reg = fault::Registry::Instance();
  reg.Reseed(seed);
  auto arm = [&](const char* point, fault::Kind kind, double probability,
                 uint32_t latency_us = 0) {
    fault::Policy p;
    p.kind = kind;
    p.probability = probability;
    p.latency_us = latency_us;
    p.keep_fraction = 0.5;
    reg.Arm(point, p);
  };
  // Every seam at once. Tears only where recovery detects them (the log
  // append path — checksummed, torn-tail trimmed); kFail elsewhere on the
  // write side (a silently torn page would be indistinguishable from data
  // corruption, which is not this storm's oracle); latency on the read side.
  arm("polarfs.fsync", fault::Kind::kFail, 0.004);
  arm("polarfs.fsync.control", fault::Kind::kFail, 0.01);
  arm("polarfs.append_file", fault::Kind::kTorn, 0.004);
  arm("logstore.append", fault::Kind::kFail, 0.008);
  arm("logstore.truncate", fault::Kind::kFail, 0.01);
  arm("logstore.recover", fault::Kind::kFail, 0.01);
  arm("polarfs.write_page", fault::Kind::kFail, 0.01);
  arm("polarfs.write_file", fault::Kind::kFail, 0.01);
  arm("polarfs.read_page", fault::Kind::kLatency, 0.01, /*latency_us=*/100);
  arm("polarfs.read_file", fault::Kind::kLatency, 0.01, /*latency_us=*/100);
  arm("logstore.read", fault::Kind::kLatency, 0.02, /*latency_us=*/100);

  constexpr int kThreads = 3;
  constexpr int64_t kRange = 10'000;  // per-thread pk stride
  auto* txns = rw.txn_manager();
  std::vector<int> acked(kThreads, 0);
  // Commit-record LSN of each acknowledged commit, in ack order: on a gap it
  // tells a lost durable record (recovery/replay) from an ack given before
  // the record was durable.
  std::vector<std::vector<Lsn>> acked_lsns(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      int consecutive_failures = 0;
      for (int i = 0; i < per_thread;) {
        Transaction txn;
        txns->Begin(&txn);
        const int64_t pk = (t + 1) * kRange + i;
        Status s = txns->Insert(&txn, 1, {pk, int64_t(i)});
        if (s.ok()) s = txns->Commit(&txn);
        else (void)txns->Rollback(&txn);
        if (s.ok()) {
          // Only an acknowledged commit advances the sequence: pk order ==
          // commit-LSN order, the property the prefix oracle needs.
          acked_lsns[t].push_back(txn.commit_lsn());
          acked[t] = ++i;
          consecutive_failures = 0;
          continue;
        }
        // Refused append, failed batch fsync, poisoned log — retry the SAME
        // pk. A storm that killed the node for good (poison with no reboot
        // in sight) ends this thread's run; the oracle handles any prefix.
        if (++consecutive_failures > 5) break;
      }
    });
  }
  for (auto& w : workers) w.join();

  // The storm must have actually fired somewhere on the commit path; a
  // completely clean run at these probabilities and volumes means the seams
  // stopped being consulted.
  const uint64_t commit_path_fires = reg.fires("polarfs.fsync") +
                                     reg.fires("logstore.append") +
                                     reg.fires("polarfs.append_file");
  EXPECT_GE(commit_path_fires, 1u)
      << "storm never fired: seed=" << seed
      << " append_hits=" << reg.hits("logstore.append");

  // Reboot: disarm everything, then recover — torn-tail detection trims the
  // log to its good prefix and the poison latch (if any) clears.
  reg.Reset();
  ASSERT_TRUE(fs.ReopenLogs().ok());
  const Lsn recovered_durable = fs.log("redo")->durable_lsn();

  RoNodeOptions ro_opts;
  RoNode node("post-storm", &fs, &catalog, ro_opts);
  ASSERT_TRUE(node.Boot().ok());
  ASSERT_TRUE(node.CatchUpNow().ok());

  std::vector<Row> got;
  ASSERT_TRUE(node.ExecuteColumn(LScan(1, {0, 1}), &got).ok());
  // Per-thread prefix oracle over the recovered rows.
  std::vector<std::vector<int64_t>> recovered(kThreads);
  std::vector<Row> recovered_base;
  for (const Row& r : got) {
    const int64_t pk = AsInt(r[0]);
    if (pk < kRange) {
      recovered_base.push_back(r);
      continue;
    }
    const int t = static_cast<int>(pk / kRange) - 1;
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kThreads);
    // Values survive verbatim (v == the per-thread sequence number).
    EXPECT_EQ(AsInt(r[1]), pk - (t + 1) * kRange);
    recovered[t].push_back(pk);
  }
  EXPECT_EQ(testing_util::Canonicalize(recovered_base),
            testing_util::Canonicalize(base));
  for (int t = 0; t < kThreads; ++t) {
    std::sort(recovered[t].begin(), recovered[t].end());
    SCOPED_TRACE(::testing::Message()
                 << "thread=" << t << " acked=" << acked[t]
                 << " recovered=" << recovered[t].size());
    // Contiguous from the range base: gap-free, reorder-free.
    for (size_t j = 0; j < recovered[t].size(); ++j) {
      const int64_t expected = (t + 1) * kRange + static_cast<int64_t>(j);
      ::testing::Message why;
      if (recovered[t][j] != expected && j < acked_lsns[t].size()) {
        const Lsn lsn = acked_lsns[t][j];
        why << "missing pk " << expected << " was acked with commit LSN "
            << lsn << ", recovered durable LSN " << recovered_durable << ": "
            << (lsn <= recovered_durable
                    ? "its record is inside the recovered log, so recovery "
                      "or replay lost it"
                    : "its record is past the recovered log, so the commit "
                      "was acked before it was durable");
      }
      ASSERT_EQ(recovered[t][j], expected) << why;
    }
    // Never more than was acknowledged (a never-acked row surfacing means a
    // refused commit leaked); possibly fewer (torn-below-durable loss).
    EXPECT_LE(recovered[t].size(), static_cast<size_t>(acked[t]));
  }

  // Row-replica arm: after the boot-time undo pass both engines agree on the
  // same recovered state.
  (void)node.RecoverRowReplica();
  RowTable* replica = node.engine()->GetTable(1);
  ASSERT_NE(replica, nullptr);
  std::vector<Row> raw;
  ASSERT_TRUE(replica->Scan([&](int64_t, const Row& r) {
    raw.push_back(r);
    return true;
  }).ok());
  EXPECT_EQ(testing_util::Canonicalize(raw), testing_util::Canonicalize(got));
}

// The storm's lost-ack case, made deterministic: the log refuses an
// insert's DML record, yet the insert is already in the RW tree. Were the
// commit acknowledged, its commit record would land with no DML before it
// and recovery would lose the row. The refusal poisons the log instead, so
// the commit fails and the recovered state holds only acknowledged rows.
TEST_F(FaultStormTest, RefusedDmlAppendFailsTheCommit) {
  PolarFs fs;
  Catalog catalog;
  RwNode rw(&fs, &catalog);
  ASSERT_TRUE(rw.CreateTable(StormSchema()).ok());
  ASSERT_TRUE(rw.BulkLoad(1, {{int64_t(0), int64_t(0)}}).ok());
  ASSERT_TRUE(rw.FinishLoad().ok());
  auto* txns = rw.txn_manager();
  Transaction acked;
  txns->Begin(&acked);
  ASSERT_TRUE(txns->Insert(&acked, 1, {int64_t(1), int64_t(1)}).ok());
  ASSERT_TRUE(txns->Commit(&acked).ok());

  auto& reg = fault::Registry::Instance();
  fault::Policy refuse_next;
  refuse_next.hit_at = 1;  // the next append: the insert's DML record
  reg.Arm("logstore.append", refuse_next);
  Transaction txn;
  txns->Begin(&txn);
  Status s = txns->Insert(&txn, 1, {int64_t(2), int64_t(2)});
  if (s.ok()) s = txns->Commit(&txn);
  EXPECT_EQ(reg.fires("logstore.append"), 1u);
  EXPECT_FALSE(s.ok()) << "commit acknowledged without its DML record";

  reg.Reset();
  ASSERT_TRUE(fs.ReopenLogs().ok());
  RoNode node("recovered", &fs, &catalog, RoNodeOptions{});
  ASSERT_TRUE(node.Boot().ok());
  ASSERT_TRUE(node.CatchUpNow().ok());
  std::vector<Row> got;
  ASSERT_TRUE(node.ExecuteColumn(LScan(1, {0, 1}), &got).ok());
  EXPECT_EQ(testing_util::Canonicalize(got),
            testing_util::Canonicalize({{int64_t(0), int64_t(0)},
                                        {int64_t(1), int64_t(1)}}));
}

}  // namespace
}  // namespace imci
