#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace imci {
namespace {

using testing_util::Canonicalize;
using testing_util::MakeTpchCluster;

class TpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cluster_ = MakeTpchCluster(0.005).release();
    ASSERT_NE(cluster_, nullptr);
    ro_ = cluster_->ro(0);
    ASSERT_TRUE(ro_->CatchUpNow().ok());
    ro_->RefreshStats();
  }
  static void TearDownTestSuite() {
    delete cluster_;
    cluster_ = nullptr;
  }

  static Cluster* cluster_;
  static RoNode* ro_;
};

Cluster* TpchTest::cluster_ = nullptr;
RoNode* TpchTest::ro_ = nullptr;

/// The dual-engine transparency contract (G#1): both engines must return the
/// same result for every TPC-H query.
class TpchEngineEquivalence : public TpchTest,
                              public ::testing::WithParamInterface<int> {};

TEST_P(TpchEngineEquivalence, ColumnMatchesRow) {
  const int q = GetParam();
  auto col_exec = [&](const LogicalRef& plan, std::vector<Row>* out) {
    return ro_->ExecuteColumn(plan, out);
  };
  auto row_exec = [&](const LogicalRef& plan, std::vector<Row>* out) {
    return ro_->ExecuteRow(plan, out);
  };
  std::vector<Row> col_rows, row_rows;
  ASSERT_TRUE(
      tpch::RunQuery(q, *cluster_->catalog(), col_exec, &col_rows).ok())
      << "column engine failed on Q" << q;
  ASSERT_TRUE(
      tpch::RunQuery(q, *cluster_->catalog(), row_exec, &row_rows).ok())
      << "row engine failed on Q" << q;
  EXPECT_EQ(Canonicalize(col_rows), Canonicalize(row_rows)) << "Q" << q;
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchEngineEquivalence,
                         ::testing::Range(1, 23));

TEST_F(TpchTest, QueriesReturnPlausibleShapes) {
  auto exec = [&](const LogicalRef& plan, std::vector<Row>* out) {
    return ro_->ExecuteColumn(plan, out);
  };
  std::vector<Row> rows;
  // Q1 groups by (returnflag, linestatus): at most 6 combinations.
  ASSERT_TRUE(tpch::RunQuery(1, *cluster_->catalog(), exec, &rows).ok());
  EXPECT_GE(rows.size(), 3u);
  EXPECT_LE(rows.size(), 6u);
  EXPECT_EQ(rows[0].size(), 10u);  // 2 keys + 8 aggregates
  // Q6 is a single-row aggregate.
  ASSERT_TRUE(tpch::RunQuery(6, *cluster_->catalog(), exec, &rows).ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_FALSE(IsNull(rows[0][0]));
  EXPECT_GT(NumericValue(rows[0][0]), 0.0);
  // Q4 has at most 5 priorities.
  ASSERT_TRUE(tpch::RunQuery(4, *cluster_->catalog(), exec, &rows).ok());
  EXPECT_LE(rows.size(), 5u);
  EXPECT_GE(rows.size(), 1u);
  // Q10 returns at most 20 customers.
  ASSERT_TRUE(tpch::RunQuery(10, *cluster_->catalog(), exec, &rows).ok());
  EXPECT_LE(rows.size(), 20u);
}

TEST_F(TpchTest, PackPruningSkipsGroups) {
  ColumnIndex* li = ro_->imci()->GetIndex(tpch::kLineitem);
  ASSERT_NE(li, nullptr);
  const auto& schema = li->schema();
  const int shipdate = schema.ColumnIndex("l_shipdate");
  // A predicate excluding every row: all groups must be pruned.
  auto scan = std::make_shared<ColumnScanOp>(
      li, std::vector<int>{shipdate},
      Lt(Col(0, DataType::kDate), ConstDate(1970, 1, 1)));
  ExecContext ctx;
  ctx.pool = ro_->exec_pool();
  ctx.parallelism = 4;
  ctx.read_vid = ro_->applied_vid();
  RowSet out;
  ASSERT_TRUE(scan->Execute(&ctx, &out).ok());
  EXPECT_EQ(out.TotalRows(), 0u);
  EXPECT_GT(scan->groups_pruned(), 0u);
  EXPECT_EQ(scan->groups_scanned(), 0u);
}

TEST_F(TpchTest, RoutingSendsPointQueriesToRowEngine) {
  auto cust = cluster_->catalog()->GetByName("customer");
  auto plan = LScan(cust->table_id(), {0, 5},
                    Eq(Col(0, DataType::kInt64), ConstInt(42)));
  RoutingDecision d = RouteQuery(plan, *ro_->stats());
  EXPECT_EQ(d.engine, EngineChoice::kRowEngine);
  auto li = cluster_->catalog()->GetByName("lineitem");
  auto big = LScan(li->table_id(), {5, 6}, nullptr);
  d = RouteQuery(big, *ro_->stats());
  EXPECT_EQ(d.engine, EngineChoice::kColumnEngine);
}

}  // namespace
}  // namespace imci
