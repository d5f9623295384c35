// Morsel-driven parallel executor: result equivalence and accounting.
//
// The executor's contract is that parallelism is invisible in the answer —
// any DOP, any morsel size, any stealing schedule must produce bit-identical
// results to a serial run. The tables here are integer-only so "identical"
// means exact equality (no float-rounding escape hatch), row groups are tiny
// so even small tables span many morsels, and the snapshot tests run against
// live OLTP commits so version visibility is exercised mid-scan. Also unit
// tests for the substrate the executor stands on: the work-stealing pool,
// ParallelFor, the per-query token ledger, and the optimizer's DOP choice.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "plan/optimizer.h"
#include "tests/test_util.h"

namespace imci {
namespace {

using testing_util::Canonicalize;

constexpr TableId kFact = 9001;
constexpr TableId kDim = 9002;
constexpr int kFactRows = 12000;
constexpr int kDimRows = 300;
constexpr int64_t kKeySpace = 400;  // fact.k range; keys >= kDimRows miss

std::shared_ptr<const Schema> FactSchema() {
  std::vector<ColumnDef> cols{{"id", DataType::kInt64, false, true},
                              {"k", DataType::kInt64, false, true},
                              {"grp", DataType::kInt64, false, true},
                              {"v", DataType::kInt64, true, true}};
  return std::make_shared<Schema>(kFact, "fact", cols, 0);
}

std::shared_ptr<const Schema> DimSchema() {
  std::vector<ColumnDef> cols{{"id", DataType::kInt64, false, true},
                              {"w", DataType::kInt64, false, true}};
  return std::make_shared<Schema>(kDim, "dim", cols, 0);
}

Row MakeFactRow(int64_t id, Rng* rng) {
  Row row{id, rng->Uniform(0, kKeySpace - 1), rng->Uniform(0, 31),
          Value{rng->Uniform(0, 100000)}};
  if (rng->Uniform(0, 24) == 0) row[3] = Value{};  // ~4% null v
  return row;
}

class MorselExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = testing_util::TestSeed(907);
    ClusterOptions opts;
    opts.ro.imci.row_group_size = 256;  // many morsels even at this scale
    opts.ro.exec_threads = 4;
    opts.ro.default_parallelism = 4;
    opts.ro.morsel_row_groups = 2;  // multi-group morsels on every scan
    cluster_ = std::make_unique<Cluster>(opts);
    ASSERT_TRUE(cluster_->CreateTable(FactSchema()).ok());
    ASSERT_TRUE(cluster_->CreateTable(DimSchema()).ok());
    Rng rng(seed_);
    std::vector<Row> fact;
    fact.reserve(kFactRows);
    for (int64_t id = 0; id < kFactRows; ++id) {
      fact.push_back(MakeFactRow(id, &rng));
    }
    std::vector<Row> dim;
    dim.reserve(kDimRows);
    for (int64_t id = 0; id < kDimRows; ++id) {
      dim.push_back(Row{id, rng.Uniform(-50, 50)});
    }
    ASSERT_TRUE(cluster_->BulkLoad(kFact, std::move(fact)).ok());
    ASSERT_TRUE(cluster_->BulkLoad(kDim, std::move(dim)).ok());
    ASSERT_TRUE(cluster_->Open().ok());
    ro_ = cluster_->ro(0);
    ASSERT_TRUE(ro_->CatchUpNow().ok());
  }

  /// Plans covering every parallel operator: morsel scan (filtered and
  /// full), partition-parallel join build/probe for each join type, and the
  /// exchange-merged aggregation with and without group keys.
  std::vector<std::pair<const char*, LogicalRef>> Plans() {
    auto scan_fact = [] {
      return LScan(kFact, {0, 1, 2, 3});
    };
    auto filtered_fact = [] {
      return LScan(kFact, {0, 1, 2, 3},
                   Ge(Col(3, DataType::kInt64), ConstInt(50000)));
    };
    auto scan_dim = [] { return LScan(kDim, {0, 1}); };
    std::vector<std::pair<const char*, LogicalRef>> plans;
    plans.emplace_back("scan_filter", filtered_fact());
    plans.emplace_back(
        "join_inner",
        LJoin(scan_fact(), scan_dim(), {1}, {0}, JoinType::kInner));
    plans.emplace_back(
        "join_left", LJoin(scan_fact(), scan_dim(), {1}, {0}, JoinType::kLeft));
    plans.emplace_back(
        "join_semi", LJoin(scan_fact(), scan_dim(), {1}, {0}, JoinType::kSemi));
    plans.emplace_back(
        "join_anti", LJoin(scan_fact(), scan_dim(), {1}, {0}, JoinType::kAnti));
    plans.emplace_back(
        "agg_grouped",
        LAgg(scan_fact(), {2},
             {AggSpec{AggKind::kSum, Col(3, DataType::kInt64)},
              AggSpec{AggKind::kCountStar, nullptr},
              AggSpec{AggKind::kMin, Col(3, DataType::kInt64)},
              AggSpec{AggKind::kMax, Col(3, DataType::kInt64)},
              AggSpec{AggKind::kCountDistinct, Col(1, DataType::kInt64)}}));
    plans.emplace_back(
        "agg_global",
        LAgg(filtered_fact(), {},
             {AggSpec{AggKind::kSum, Col(3, DataType::kInt64)},
              AggSpec{AggKind::kCount, Col(3, DataType::kInt64)}}));
    plans.emplace_back(
        "join_agg",
        LAgg(LJoin(scan_fact(), scan_dim(), {1}, {0}, JoinType::kInner), {2},
             {AggSpec{AggKind::kSum, Col(5, DataType::kInt64)},
              AggSpec{AggKind::kCountStar, nullptr}}));
    return plans;
  }

  uint64_t seed_ = 0;
  std::unique_ptr<Cluster> cluster_;
  RoNode* ro_ = nullptr;
};

// Every plan, executed at DOP 2 and 4 repeatedly (different stealing
// schedules each run), must equal the DOP=1 reference exactly.
TEST_F(MorselExecTest, ParallelPlansMatchSerialExactly) {
  for (auto& [name, plan] : Plans()) {
    SCOPED_TRACE(name);
    std::vector<Row> ref_rows;
    ASSERT_TRUE(ro_->ExecuteColumn(plan, &ref_rows, 1).ok());
    const auto reference = Canonicalize(ref_rows);
    ASSERT_FALSE(reference.empty());
    for (int dop : {2, 4}) {
      for (int rep = 0; rep < 3; ++rep) {
        std::vector<Row> out;
        ASSERT_TRUE(ro_->ExecuteColumn(plan, &out, dop).ok());
        ASSERT_EQ(Canonicalize(out), reference)
            << "dop=" << dop << " rep=" << rep;
      }
    }
  }
}

// Morsel granularity is a performance knob, not a semantic one: the same
// plan at morsel sizes 1, 3 and 7 row groups (the last larger than many
// scans' group count) returns the reference answer.
TEST_F(MorselExecTest, MorselSizeDoesNotChangeAnswers) {
  const Vid vid = ro_->applied_vid();
  for (auto& [name, plan] : Plans()) {
    SCOPED_TRACE(name);
    std::vector<std::string> reference;
    for (int morsel : {1, 3, 7}) {
      PhysOpRef root;
      ASSERT_TRUE(LowerToColumnPlan(plan, ro_->imci(), &root).ok());
      ExecContext ctx;
      ctx.pool = ro_->exec_pool();
      ctx.parallelism = 4;
      ctx.morsel_row_groups = morsel;
      ctx.read_vid = vid;
      std::vector<Row> out;
      ASSERT_TRUE(RunPlan(root, &ctx, &out).ok());
      auto canon = Canonicalize(out);
      if (reference.empty()) {
        reference = std::move(canon);
      } else {
        ASSERT_EQ(canon, reference) << "morsel=" << morsel;
      }
    }
  }
}

// OLTP writers commit into fact while readers execute the same plan at a
// pinned VID with DOP 1 and DOP 4: both must see the identical frozen
// snapshot no matter how many commits land mid-scan.
TEST_F(MorselExecTest, PinnedSnapshotStableAcrossDopUnderConcurrentCommits) {
  const int rounds = testing_util::TestIters(12);
  SCOPED_TRACE(::testing::Message() << "IMCI_TEST_SEED=" << seed_);
  std::atomic<bool> stop{false};
  std::atomic<int> committed{0};
  constexpr int kWriters = 2;
  // Paced and capped: unthrottled writers on a small machine outrun the
  // single apply/query thread, and without checkpoints the log and version
  // arenas only ever grow — the cap bounds memory, the pacing spreads the
  // commits across the scan rounds so they still land mid-query.
  const int commits_per_writer = rounds * 60;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(seed_ + 1000 + t);
      auto* txns = cluster_->rw()->txn_manager();
      int64_t next_insert = kFactRows + t * 1000000;
      for (int n = 0; n < commits_per_writer && !stop.load(); ++n) {
        Transaction txn;
        txns->Begin(&txn);
        Status s;
        if (rng.Uniform(0, 3) == 0) {
          s = txns->Insert(&txn, kFact, MakeFactRow(next_insert++, &rng));
        } else {
          const int64_t pk = rng.Uniform(0, kFactRows - 1);
          s = txns->Update(&txn, kFact, pk, MakeFactRow(pk, &rng));
        }
        if (s.ok() && txns->Commit(&txn).ok()) {
          committed.fetch_add(1);
        } else {
          (void)txns->Rollback(&txn);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  auto plans = Plans();
  for (int round = 0; round < rounds; ++round) {
    (void)ro_->CatchUpNow();
    // Register the snapshot with the node's registry so background
    // maintenance can't prune the versions this round still reads.
    SnapshotRegistry* snaps = ro_->engine()->snapshots();
    const std::atomic<Vid>& applied = ro_->pipeline()->applied_vid_ref();
    const Vid vid = snaps->Open(applied);
    auto& [name, plan] = plans[round % plans.size()];
    SCOPED_TRACE(::testing::Message() << "round=" << round << " " << name);
    std::vector<std::string> reference;
    for (int dop : {1, 4, 4}) {
      PhysOpRef root;
      ASSERT_TRUE(LowerToColumnPlan(plan, ro_->imci(), &root).ok());
      ExecContext ctx;
      ctx.pool = ro_->exec_pool();
      ctx.parallelism = dop;
      ctx.morsel_row_groups = 2;
      ctx.read_vid = vid;
      std::vector<Row> out;
      ASSERT_TRUE(RunPlan(root, &ctx, &out).ok());
      auto canon = Canonicalize(out);
      if (reference.empty()) {
        reference = std::move(canon);
      } else {
        ASSERT_EQ(canon, reference) << "dop=" << dop;
      }
    }
    snaps->Close(vid, applied);
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  ASSERT_GT(committed.load(), 0);
  // The snapshot runs above never saw them mid-flight; after catch-up the
  // parallel executor agrees with the RW's authoritative row count.
  ASSERT_TRUE(ro_->CatchUpNow().ok());
  auto count_plan =
      LAgg(LScan(kFact, {0}), {}, {AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> out1, out4;
  ASSERT_TRUE(ro_->ExecuteColumn(count_plan, &out1, 1).ok());
  ASSERT_TRUE(ro_->ExecuteColumn(count_plan, &out4, 4).ok());
  ASSERT_EQ(Canonicalize(out1), Canonicalize(out4));
}

// Concurrent analytics queries share the pool through the token ledger:
// grants shrink under load, no query is refused, accounting returns to zero.
TEST_F(MorselExecTest, ConcurrentQueriesShareTokenBudget) {
  auto* ledger = ro_->query_tokens();
  ASSERT_EQ(ledger->in_use(), 0);
  auto plan = Plans()[5].second;  // agg_grouped
  std::vector<Row> ref_rows;
  ASSERT_TRUE(ro_->ExecuteColumn(plan, &ref_rows, 1).ok());
  const auto reference = Canonicalize(ref_rows);
  const uint64_t admitted_before = ledger->queries_admitted();
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 5;
  std::vector<std::thread> runners;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    runners.emplace_back([&] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        std::vector<Row> out;
        if (!ro_->ExecuteColumn(plan, &out, 4).ok() ||
            Canonicalize(out) != reference) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& r : runners) r.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(ledger->in_use(), 0);
  EXPECT_EQ(ledger->queries_admitted() - admitted_before,
            static_cast<uint64_t>(kThreads * kQueriesPerThread));
  EXPECT_LE(ledger->peak_in_use(), ledger->capacity() + kThreads);
}

TEST(QueryTokenLedgerTest, GrantArithmetic) {
  QueryTokenLedger ledger(4);
  EXPECT_EQ(ledger.capacity(), 4);
  const int g1 = ledger.Acquire(8);  // wants more than capacity
  EXPECT_EQ(g1, 4);
  EXPECT_EQ(ledger.in_use(), 4);
  EXPECT_EQ(ledger.queries_throttled(), 1u);
  const int g2 = ledger.Acquire(3);  // pool exhausted: minimum grant is 1
  EXPECT_EQ(g2, 1);
  EXPECT_EQ(ledger.in_use(), 5);
  ledger.Release(g1);
  const int g3 = ledger.Acquire(2);  // 3 free now, full grant
  EXPECT_EQ(g3, 2);
  EXPECT_EQ(ledger.queries_throttled(), 2u);  // only g1 and g2 were shrunk
  ledger.Release(g2);
  ledger.Release(g3);
  EXPECT_EQ(ledger.in_use(), 0);
  EXPECT_EQ(ledger.peak_in_use(), 5);
  EXPECT_EQ(ledger.queries_admitted(), 3u);

  // A null ledger (standalone executor) grants the request unclamped.
  QueryTokenGrant free_grant(nullptr, 7);
  EXPECT_EQ(free_grant.tokens(), 7);
  QueryTokenGrant min_grant(nullptr, 0);
  EXPECT_EQ(min_grant.tokens(), 1);
}

TEST(WorkStealingPoolTest, StealsFromBlockedWorkersQueue) {
  ThreadPool pool(2);
  // The first submit round-robins to queue 0; its owner (or a thief) parks
  // on the promise. The remaining tasks land on both queues, but only one
  // worker is live — it must steal the other queue's share to finish.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool.Submit([released] { released.wait(); });
  std::atomic<int> done{0};
  constexpr int kTasks = 16;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  while (done.load() < kTasks) {
    std::this_thread::yield();
  }
  EXPECT_GE(pool.tasks_stolen(), 1u);
  release.set_value();
}

TEST(WorkStealingPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr int kN = 5000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(&pool, kN, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // Nested ParallelFor from inside a pool task must not deadlock: the
  // caller participates, so progress needs no free worker.
  std::atomic<int> inner_total{0};
  ParallelFor(&pool, 8, [&](int) {
    ParallelFor(&pool, 8, [&](int) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 64);
}

TEST_F(MorselExecTest, ChooseDopScalesWithEstimatedRows) {
  ro_->RefreshStats();
  StatsCollector stats;
  stats.Collect(*ro_->imci());
  // Full fact scan: enough rows for real fan-out at a small rows-per-worker
  // budget, capped at max_dop.
  auto big = LScan(kFact, {0, 1, 2, 3});
  EXPECT_EQ(ChooseDop(big, stats, 8, 1e9), 1);  // huge budget: stay serial
  EXPECT_EQ(ChooseDop(big, stats, 8, 100.0), 8);  // tiny budget: all workers
  const int mid = ChooseDop(big, stats, 8, kFactRows / 2.0);
  EXPECT_GE(mid, 2);
  EXPECT_LE(mid, 8);
  // Tiny dim scan stays serial; max_dop=1 short-circuits everything.
  auto small = LScan(kDim, {0, 1});
  EXPECT_EQ(ChooseDop(small, stats, 8, 65536.0), 1);
  EXPECT_EQ(ChooseDop(big, stats, 1, 1.0), 1);
}

}  // namespace
}  // namespace imci
