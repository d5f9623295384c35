// Distributed analytics: the multi-RO fragment coordinator.
//
// The coordinator's contract mirrors the morsel executor's one level up:
// distribution is invisible in the answer. Any fan-out, any participant
// set, any failover schedule must return what a single RO returns at the
// same snapshot — and a participant dying mid-query must never surface as
// a client-visible error. The suite drives that contract three ways:
// result equivalence over the TPC-H plan corpus, fragment failover under
// targeted fault injection and live eviction, and all-or-nothing snapshot
// visibility under concurrent RW commits (including the straggler arm
// where a lagging participant is shed via Busy).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "exec/serde.h"
#include "plan/fragment.h"
#include "tests/test_util.h"

namespace imci {
namespace {

using testing_util::Canonicalize;

// --- Serde round-trips --------------------------------------------------

TEST(FragmentSerdeTest, RowsRoundTripExactly) {
  std::vector<Row> rows;
  rows.push_back(Row{int64_t{42}, 3.14159265358979, std::string("abc"),
                     Value{}});
  rows.push_back(Row{int64_t{-7}, -0.0, std::string(""), int64_t{1} << 62});
  std::string buf;
  PutRows(&buf, rows);
  ByteReader r(buf);
  std::vector<Row> back;
  ASSERT_TRUE(GetRows(&r, &back).ok());
  ASSERT_TRUE(r.done());
  ASSERT_EQ(back.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(back[i], rows[i]);
  // Truncated buffers must fail cleanly, never read out of bounds.
  for (size_t cut = 0; cut < buf.size(); cut += 3) {
    ByteReader short_r(buf.data(), cut);
    std::vector<Row> ignored;
    (void)GetRows(&short_r, &ignored);  // any Status is fine; no UB
  }
}

TEST(FragmentSerdeTest, PlanRoundTripPreservesStructure) {
  auto scan = LScan(77, {0, 1, 2},
                    Ge(Col(2, DataType::kDouble), ConstDouble(1.5)));
  scan->part_col = 0;
  scan->part_has_lo = true;
  scan->part_lo = 100;
  auto plan = LSort(
      LAgg(scan, {1},
           {AggSpec{AggKind::kSum, Col(2, DataType::kDouble)},
            AggSpec{AggKind::kCountStar, nullptr}}),
      {SortKey{1, true}}, 10);
  std::string buf;
  PutPlan(&buf, plan);
  ByteReader r(buf);
  LogicalRef back;
  ASSERT_TRUE(GetPlan(&r, &back).ok());
  ASSERT_TRUE(r.done());
  std::string buf2;
  PutPlan(&buf2, back);
  EXPECT_EQ(buf, buf2);  // re-encoding the decoded plan is byte-identical
  ASSERT_EQ(back->kind, LogicalKind::kSort);
  const auto& rescan = back->children[0]->children[0];
  EXPECT_EQ(rescan->part_col, 0);
  EXPECT_TRUE(rescan->part_has_lo);
  EXPECT_EQ(rescan->part_lo, 100);
  EXPECT_FALSE(rescan->part_has_hi);
}

// --- Shared TPC-H fixture -----------------------------------------------

std::unique_ptr<Cluster> MakeDistCluster(int ros) {
  ClusterOptions opts;
  opts.initial_ro_nodes = ros;
  opts.ro.imci.row_group_size = 512;  // many groups -> real range cutting
  opts.ro.exec_threads = 4;
  // Aggressive coordinator knobs: at test scale every analytic plan should
  // distribute, so the equivalence corpus actually exercises the fan-out.
  opts.coordinator.min_rows_touched = 0;
  opts.coordinator.rows_per_fragment = 500.0;
  auto cluster = std::make_unique<Cluster>(opts);
  tpch::TpchGen gen(0.01);
  for (auto& schema : gen.Schemas()) {
    if (!cluster->CreateTable(schema).ok()) return nullptr;
  }
  for (auto table : {tpch::kRegion, tpch::kNation, tpch::kSupplier,
                     tpch::kPart, tpch::kPartsupp, tpch::kCustomer,
                     tpch::kOrders, tpch::kLineitem}) {
    if (!cluster->BulkLoad(table, gen.Generate(table)).ok()) return nullptr;
  }
  if (!cluster->Open().ok()) return nullptr;
  return cluster;
}

class DistExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cluster_ = MakeDistCluster(3).release();
    ASSERT_NE(cluster_, nullptr);
    for (RoNode* ro : cluster_->ro_nodes()) {
      ASSERT_TRUE(ro->CatchUpNow().ok());
      ro->RefreshStats();
    }
  }
  static void TearDownTestSuite() {
    delete cluster_;
    cluster_ = nullptr;
  }
  void TearDown() override { fault::Registry::Instance().Reset(); }

  /// Single-RO serial reference: the executor the paper's results are
  /// defined against. Distribution must be indistinguishable from this.
  static Status Reference(const LogicalRef& plan, std::vector<Row>* out) {
    return cluster_->ro(0)->ExecuteColumn(plan, out, 1);
  }

  /// Distributed-first execution, falling back to the reference path when
  /// the coordinator declines — exactly what Proxy::ExecuteQuery does.
  static Status Distributed(const LogicalRef& plan, std::vector<Row>* out,
                            bool* attempted = nullptr) {
    bool local_attempted = false;
    Status s = cluster_->coordinator()->Execute(plan, 0, out,
                                               &local_attempted);
    if (attempted) *attempted = local_attempted;
    if (local_attempted) return s;
    return Reference(plan, out);
  }

  static Cluster* cluster_;
};

Cluster* DistExecTest::cluster_ = nullptr;

// --- Equivalence over the TPC-H corpus ----------------------------------

// Every TPC-H query through the coordinator equals the single-RO serial
// reference. Queries the coordinator declines (unsupported shapes, tiny
// subquery plans) take the fallback path and compare trivially; the counter
// assertion at the end proves a healthy share genuinely distributed.
class DistTpchEquivalence : public DistExecTest,
                            public ::testing::WithParamInterface<int> {};

TEST_P(DistTpchEquivalence, DistributedMatchesSingleNode) {
  const int q = GetParam();
  const uint64_t before = cluster_->coordinator()->queries_distributed();
  std::vector<Row> ref_rows, dist_rows;
  ASSERT_TRUE(tpch::RunQuery(q, *cluster_->catalog(), Reference, &ref_rows)
                  .ok())
      << "reference failed on Q" << q;
  auto dist_exec = [](const LogicalRef& plan, std::vector<Row>* out) {
    return Distributed(plan, out);
  };
  ASSERT_TRUE(tpch::RunQuery(q, *cluster_->catalog(), dist_exec, &dist_rows)
                  .ok())
      << "distributed failed on Q" << q;
  EXPECT_EQ(Canonicalize(dist_rows), Canonicalize(ref_rows)) << "Q" << q;
  // The well-known distributable shapes must actually fan out, or the whole
  // comparison above is vacuous.
  if (q == 1 || q == 6) {
    EXPECT_GT(cluster_->coordinator()->queries_distributed(), before)
        << "Q" << q << " was expected to distribute";
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, DistTpchEquivalence,
                         ::testing::Range(1, 23));

// Integer-only plans must round-trip bit-exactly — no Canonicalize rounding
// involved; sorted outputs must also agree on order (k-way merge ties are
// broken by full-row comparison, same as the single-node sort).
TEST_F(DistExecTest, IntegerResultsBitExactAndOrdered) {
  auto li = cluster_->catalog()->GetByName("lineitem");
  const int supp = tpch::ColOf(*li, "l_suppkey");
  const int line = tpch::ColOf(*li, "l_linenumber");
  auto agg = LAgg(LScan(li->table_id(), {line, supp}), {0},
                  {AggSpec{AggKind::kCountStar, nullptr},
                   AggSpec{AggKind::kMin, Col(1, DataType::kInt64)},
                   AggSpec{AggKind::kMax, Col(1, DataType::kInt64)}});
  auto sorted = LSort(LScan(li->table_id(), {line, supp}),
                      {SortKey{0, false}, SortKey{1, true}}, 500);
  for (const auto& plan : {agg, sorted}) {
    std::vector<Row> ref_rows, dist_rows;
    ASSERT_TRUE(Reference(plan, &ref_rows).ok());
    bool attempted = false;
    ASSERT_TRUE(
        cluster_->coordinator()->Execute(plan, 0, &dist_rows, &attempted)
            .ok());
    ASSERT_TRUE(attempted);
    EXPECT_EQ(dist_rows, ref_rows);  // exact, order included
  }
}

// Participant-count sweep: 2- and 3-way fan-outs of the same plan agree
// with each other and the reference (the bench gate's correctness half).
TEST_F(DistExecTest, AnswerInvariantAcrossParticipantCounts) {
  auto li = cluster_->catalog()->GetByName("lineitem");
  const int qty = tpch::ColOf(*li, "l_quantity");
  const int price = tpch::ColOf(*li, "l_extendedprice");
  auto plan = LAgg(LScan(li->table_id(), {qty, price}), {0},
                   {AggSpec{AggKind::kSum, Col(1, DataType::kDouble)},
                    AggSpec{AggKind::kAvg, Col(1, DataType::kDouble)},
                    AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> ref_rows;
  ASSERT_TRUE(Reference(plan, &ref_rows).ok());
  const auto reference = Canonicalize(ref_rows);
  auto* coord = cluster_->coordinator();
  for (int n : {2, 3}) {
    coord->set_max_participants(n);
    DistQueryStats stats;
    std::vector<Row> out;
    bool attempted = false;
    ASSERT_TRUE(coord->Execute(plan, 0, &out, &attempted, &stats).ok());
    ASSERT_TRUE(attempted) << n << " participants";
    EXPECT_EQ(stats.participants, n);
    EXPECT_GE(stats.fragments, 2);
    EXPECT_EQ(Canonicalize(out), reference) << n << " participants";
  }
  coord->set_max_participants(8);
}

// --- Failover -----------------------------------------------------------

// One participant's fragment service hard-fails (in-process stand-in for a
// node dying mid-query). The coordinator must re-dispatch its fragments on
// surviving peers and still answer identically — with the retry counter
// proving the failover path ran. Reverting the retry wiring makes this
// fail: the first fragment error would abandon distribution, `attempted`
// stays false, and the retries assertion reads zero.
TEST_F(DistExecTest, FragmentFailoverOnFaultedNode) {
  auto li = cluster_->catalog()->GetByName("lineitem");
  const int qty = tpch::ColOf(*li, "l_quantity");
  auto plan = LAgg(LScan(li->table_id(), {qty}), {},
                   {AggSpec{AggKind::kSum, Col(0, DataType::kInt64)},
                    AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> ref_rows;
  ASSERT_TRUE(Reference(plan, &ref_rows).ok());
  const std::string victim = cluster_->ro(1)->name();
  fault::Policy p;
  p.kind = fault::Kind::kFail;
  p.scope = victim;  // only ro1's fragment executions fail
  fault::ScopedFault fault("fragment.execute", p);
  auto* coord = cluster_->coordinator();
  const uint64_t retries_before = coord->retries();
  DistQueryStats stats;
  std::vector<Row> out;
  bool attempted = false;
  ASSERT_TRUE(coord->Execute(plan, 0, &out, &attempted, &stats).ok());
  ASSERT_TRUE(attempted) << "failover should rescue the query, not abandon";
  EXPECT_EQ(Canonicalize(out), Canonicalize(ref_rows));
  EXPECT_GT(coord->retries(), retries_before);
  for (const auto& t : stats.timings) {
    EXPECT_NE(t.node, victim);  // every fragment completed elsewhere
  }
}

// Live eviction during a stream of distributed queries: a participant is
// torn out of the fleet (sessions drained, node destroyed) while queries
// are in flight. Zero client-visible errors, every answer correct.
TEST_F(DistExecTest, EvictionMidQueryStreamIsInvisible) {
  auto cluster = MakeDistCluster(3);
  ASSERT_NE(cluster, nullptr);
  for (RoNode* ro : cluster->ro_nodes()) {
    ASSERT_TRUE(ro->CatchUpNow().ok());
    ro->RefreshStats();
  }
  auto li = cluster->catalog()->GetByName("lineitem");
  const int qty = tpch::ColOf(*li, "l_quantity");
  auto plan = LAgg(LScan(li->table_id(), {qty}), {0},
                   {AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> ref_rows;
  ASSERT_TRUE(cluster->ro(0)->ExecuteColumn(plan, &ref_rows, 1).ok());
  const auto reference = Canonicalize(ref_rows);
  std::atomic<int> errors{0};
  std::atomic<int> mismatches{0};
  std::atomic<bool> stop{false};
  std::thread runner([&] {
    while (!stop.load()) {
      std::vector<Row> out;
      Status s = cluster->proxy()->ExecuteQuery(plan, &out);
      if (!s.ok()) {
        errors.fetch_add(1);
      } else if (Canonicalize(out) != reference) {
        mismatches.fetch_add(1);
      }
    }
  });
  // Let the stream get going, then evict a (likely participating) node.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  RoNode* victim = cluster->ro(2);
  ASSERT_NE(victim, nullptr);
  ASSERT_TRUE(cluster->EvictRoNode(victim).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  runner.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

// --- Common-snapshot consistency ----------------------------------------

constexpr TableId kSnap = 9100;
constexpr int kSnapRows = 6000;

std::shared_ptr<const Schema> SnapSchema() {
  std::vector<ColumnDef> cols{{"id", DataType::kInt64, false, true},
                              {"val", DataType::kInt64, false, true}};
  return std::make_shared<Schema>(kSnap, "snap", cols, 0);
}

// A writer bumps every row to generation n in one transaction, over and
// over; distributed group-by-generation counts must always see exactly one
// generation covering the full table — a fragment reading generation n
// while another reads n+1 would split the group. This is the common-
// snapshot protocol's whole job. A nonzero `fragment_latency_us` delays
// ro1's fragments by that much before they register the common snapshot,
// so its replication and maintenance run past that VID first.
void RunAllOrNothingQueries(int iters, uint32_t fragment_latency_us) {
  ClusterOptions opts;
  opts.initial_ro_nodes = 3;
  opts.ro.imci.row_group_size = 256;
  opts.coordinator.min_rows_touched = 0;
  opts.coordinator.rows_per_fragment = 500.0;
  auto cluster = std::make_unique<Cluster>(opts);
  ASSERT_TRUE(cluster->CreateTable(SnapSchema()).ok());
  std::vector<Row> rows;
  rows.reserve(kSnapRows);
  for (int64_t id = 0; id < kSnapRows; ++id) rows.push_back(Row{id, 0});
  ASSERT_TRUE(cluster->BulkLoad(kSnap, std::move(rows)).ok());
  ASSERT_TRUE(cluster->Open().ok());
  for (RoNode* ro : cluster->ro_nodes()) {
    ASSERT_TRUE(ro->CatchUpNow().ok());
    ro->RefreshStats();
  }
  std::optional<fault::ScopedFault> delay;
  if (fragment_latency_us > 0) {
    fault::Policy p;
    p.kind = fault::Kind::kLatency;
    p.latency_us = fragment_latency_us;
    p.scope = cluster->ro(0)->name();
    delay.emplace("fragment.execute", p);
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    auto* txns = cluster->rw()->txn_manager();
    int64_t generation = 1;
    while (!stop.load()) {
      Transaction txn;
      txns->Begin(&txn);
      bool ok = true;
      for (int64_t id = 0; id < kSnapRows && ok; ++id) {
        ok = txns->Update(&txn, kSnap, id, Row{id, generation}).ok();
      }
      if (ok && txns->Commit(&txn).ok()) {
        ++generation;
      } else {
        (void)txns->Rollback(&txn);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  auto plan = LAgg(LScan(kSnap, {1}), {0},
                   {AggSpec{AggKind::kCountStar, nullptr}});
  auto* coord = cluster->coordinator();
  int distributed = 0;
  for (int i = 0; i < iters; ++i) {
    std::vector<Row> out;
    DistQueryStats stats;
    bool attempted = false;
    ASSERT_TRUE(coord->Execute(plan, 0, &out, &attempted, &stats).ok());
    if (!attempted) continue;  // fleet busy; the point needs attempted runs
    ++distributed;
    ASSERT_GE(stats.fragments, 2);
    // Exactly one generation, covering every row.
    ASSERT_EQ(out.size(), 1u) << "torn snapshot: saw "
                              << out.size() << " generations";
    EXPECT_EQ(std::get<int64_t>(out[0][1]), kSnapRows);
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(distributed, iters / 2);
}

TEST_F(DistExecTest, ConcurrentCommitsAllOrNothingAcrossFragments) {
  RunAllOrNothingQueries(testing_util::TestIters(30), 0);
}

// The same contract when one participant's fragments arrive 3 ms late: by
// then that node has usually applied newer commits and run maintenance. A
// late fragment must either read the common snapshot intact or be refused
// (Busy) and re-dispatched — never answer from state pruned past it.
TEST_F(DistExecTest, ConcurrentCommitsAllOrNothingUnderFragmentLatency) {
  RunAllOrNothingQueries(testing_util::TestIters(100), 3000);
}

// A fragment whose snapshot lies below what the node's maintenance already
// discarded must be refused, not answered from the pruned state. A 16-row
// insert fills row group 2; maintenance (every poll here) drops that group's
// insert-VID map once no registered read view lies below the insert, after
// which a read at the older VID would count the group's rows as visible.
TEST_F(DistExecTest, FragmentBelowPruneWatermarkAnswersBusy) {
  ClusterOptions opts;
  opts.ro.imci.row_group_size = 16;
  opts.ro.replication.maintenance_interval = 1;
  auto cluster = std::make_unique<Cluster>(opts);
  ASSERT_TRUE(cluster->CreateTable(SnapSchema()).ok());
  std::vector<Row> rows;
  for (int64_t id = 0; id < 32; ++id) rows.push_back(Row{id, 0});
  ASSERT_TRUE(cluster->BulkLoad(kSnap, std::move(rows)).ok());
  ASSERT_TRUE(cluster->Open().ok());
  RoNode* ro = cluster->ro(0);
  ASSERT_TRUE(ro->CatchUpNow().ok());
  const Vid v0 = ro->applied_vid();

  auto* txns = cluster->rw()->txn_manager();
  Transaction insert;
  txns->Begin(&insert);
  for (int64_t id = 32; id < 48; ++id) {
    ASSERT_TRUE(txns->Insert(&insert, kSnap, Row{id, int64_t{1}}).ok());
  }
  ASSERT_TRUE(txns->Commit(&insert).ok());
  // Apply the insert alone, so its rows fill group 2 by themselves.
  while (ro->applied_vid() < insert.commit_vid()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int64_t gen = 2; gen < 5; ++gen) {
    Transaction txn;
    txns->Begin(&txn);
    ASSERT_TRUE(txns->Update(&txn, kSnap, 0, Row{int64_t{0}, gen}).ok());
    ASSERT_TRUE(txns->Commit(&txn).ok());
  }
  ASSERT_TRUE(ro->CatchUpNow().ok());
  ASSERT_GT(ro->applied_vid(), v0);
  ColumnIndex* index = ro->imci()->GetIndex(kSnap);
  for (int i = 0; i < 5000; ++i) {
    auto group = index->group(2);
    if (group && group->insert_vids_dropped()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(index->group(2), nullptr);
  ASSERT_TRUE(index->group(2)->insert_vids_dropped());

  auto count = LAgg(LScan(kSnap, {0}), {},
                    {AggSpec{AggKind::kCountStar, nullptr}});
  FragmentService service(ro);
  FragmentRequest req;
  req.plan = count;
  req.read_vid = v0;
  FragmentResponse rsp;
  Status s = service.Execute(req, &rsp);
  if (s.ok()) {
    ASSERT_EQ(rsp.rows.size(), 1u);
    EXPECT_EQ(std::get<int64_t>(rsp.rows[0][0]), 32)
        << "fragment at VID " << v0 << " read pruned state";
  }
  EXPECT_TRUE(s.IsBusy()) << s.ToString();

  // A fragment at the node's current point still runs, and sees all 48.
  req.read_vid = ro->applied_vid();
  FragmentResponse now;
  ASSERT_TRUE(service.Execute(req, &now).ok());
  ASSERT_EQ(now.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(now.rows[0][0]), 48);
}

// A channel whose applied-VID probe is stuck at an old VID: the coordinator
// then picks a common snapshot below what the node has already pruned.
class StaleProbeChannel : public InProcessFragmentChannel {
 public:
  StaleProbeChannel(RoNode* node, Vid stale)
      : InProcessFragmentChannel(node), stale_(stale) {}
  Vid applied_vid() const override { return stale_; }

 private:
  Vid stale_;
};

// A participant that refuses to register the snapshot (it already pruned
// below it) is ahead of the snapshot, not behind it: the coordinator retries
// elsewhere and counts no straggler. Here every participant refuses, so the
// query falls back with the straggler counter untouched.
TEST_F(DistExecTest, RefusedSnapshotIsNotAStraggler) {
  ClusterOptions opts;
  opts.initial_ro_nodes = 2;
  opts.ro.imci.row_group_size = 256;
  opts.coordinator.min_rows_touched = 0;
  opts.coordinator.rows_per_fragment = 500.0;
  auto cluster = std::make_unique<Cluster>(opts);
  ASSERT_TRUE(cluster->CreateTable(SnapSchema()).ok());
  std::vector<Row> rows;
  for (int64_t id = 0; id < kSnapRows; ++id) rows.push_back(Row{id, 0});
  ASSERT_TRUE(cluster->BulkLoad(kSnap, std::move(rows)).ok());
  ASSERT_TRUE(cluster->Open().ok());
  for (RoNode* ro : cluster->ro_nodes()) {
    ASSERT_TRUE(ro->CatchUpNow().ok());
    ro->RefreshStats();
  }
  const Vid v0 = cluster->ro(0)->applied_vid();
  {
    auto* txns = cluster->rw()->txn_manager();
    Transaction txn;
    txns->Begin(&txn);
    ASSERT_TRUE(txns->Update(&txn, kSnap, 0, Row{int64_t{0}, int64_t{1}}).ok());
    ASSERT_TRUE(txns->Commit(&txn).ok());
  }
  for (RoNode* ro : cluster->ro_nodes()) {
    ASSERT_TRUE(ro->CatchUpNow().ok());
    // Raise the registry bound past v0, as a maintenance pass would.
    ASSERT_GT(ro->engine()->snapshots()->Watermark(
                  ro->pipeline()->applied_vid_ref()),
              v0);
  }
  QueryCoordinator coord(cluster->catalog(), opts.coordinator, [&] {
    std::vector<std::unique_ptr<FragmentChannel>> chans;
    for (RoNode* ro : cluster->ro_nodes()) {
      chans.push_back(std::make_unique<StaleProbeChannel>(ro, v0));
    }
    return chans;
  });
  auto plan = LAgg(LScan(kSnap, {0}), {},
                   {AggSpec{AggKind::kCountStar, nullptr}});
  std::vector<Row> out;
  bool attempted = true;
  ASSERT_TRUE(coord.Execute(plan, 0, &out, &attempted).ok());
  EXPECT_FALSE(attempted) << "every participant should refuse VID " << v0;
  EXPECT_EQ(coord.fallbacks(), 1u);
  EXPECT_EQ(coord.stragglers(), 0u);
}

// Straggler shedding: one participant's replication reads are slowed to a
// crawl so it cannot cover the common snapshot inside the catch-up budget.
// It must answer Busy, get shed, and the query completes correctly on the
// survivors — with the straggler counter proving the shrink happened.
TEST_F(DistExecTest, StragglerParticipantIsShedNotWaitedFor) {
  ClusterOptions opts;
  opts.initial_ro_nodes = 3;
  opts.ro.imci.row_group_size = 256;
  opts.coordinator.min_rows_touched = 0;
  opts.coordinator.rows_per_fragment = 500.0;
  opts.coordinator.catchup_timeout_us = 20'000;  // shed fast
  auto cluster = std::make_unique<Cluster>(opts);
  ASSERT_TRUE(cluster->CreateTable(SnapSchema()).ok());
  std::vector<Row> rows;
  rows.reserve(kSnapRows);
  for (int64_t id = 0; id < kSnapRows; ++id) rows.push_back(Row{id, 0});
  ASSERT_TRUE(cluster->BulkLoad(kSnap, std::move(rows)).ok());
  ASSERT_TRUE(cluster->Open().ok());
  for (RoNode* ro : cluster->ro_nodes()) {
    ASSERT_TRUE(ro->CatchUpNow().ok());
    ro->RefreshStats();
  }
  // Slow ro3's replication reads only, then land a commit: ro1/ro2 apply it
  // quickly, ro3 lags behind the common snapshot at dispatch time.
  const std::string laggard = cluster->ro(2)->name();
  fault::Policy p;
  p.kind = fault::Kind::kLatency;
  p.latency_us = 200'000;
  p.scope = laggard;
  fault::ScopedFault fault("logstore.read", p);
  {
    auto* txns = cluster->rw()->txn_manager();
    Transaction txn;
    txns->Begin(&txn);
    for (int64_t id = 0; id < kSnapRows; ++id) {
      ASSERT_TRUE(txns->Update(&txn, kSnap, id, Row{id, 1}).ok());
    }
    ASSERT_TRUE(txns->Commit(&txn).ok());
  }
  ASSERT_TRUE(cluster->ro(0)->CatchUpNow().ok());
  ASSERT_TRUE(cluster->ro(1)->CatchUpNow().ok());
  auto plan = LAgg(LScan(kSnap, {1}), {0},
                   {AggSpec{AggKind::kCountStar, nullptr}});
  auto* coord = cluster->coordinator();
  const uint64_t shed_before = coord->stragglers();
  // The laggard may or may not be recruited for any one query; issue a few
  // so at least one fragment lands on it while it is behind.
  bool saw_shed = false;
  for (int i = 0; i < 10 && !saw_shed; ++i) {
    std::vector<Row> out;
    bool attempted = false;
    ASSERT_TRUE(coord->Execute(plan, 0, &out, &attempted).ok());
    if (attempted) {
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(std::get<int64_t>(out[0][0]), 1);  // post-commit generation
      EXPECT_EQ(std::get<int64_t>(out[0][1]), kSnapRows);
    }
    saw_shed = coord->stragglers() > shed_before;
  }
  EXPECT_TRUE(saw_shed) << "laggard was never recruited and shed";
}

}  // namespace
}  // namespace imci
