#include <gtest/gtest.h>

#include <limits>

#include "exec/expr.h"
#include "exec/operators.h"

namespace imci {
namespace {

Batch MakeBatch(std::vector<std::vector<Value>> rows,
                std::vector<DataType> types) {
  Batch b = Batch::Make(types);
  for (auto& r : rows) {
    for (size_t c = 0; c < r.size(); ++c) b.cols[c].AppendValue(r[c]);
    b.rows++;
  }
  return b;
}

TEST(ExprTest, ComparisonKernels) {
  Batch b = MakeBatch({{int64_t(1), int64_t(5)},
                       {int64_t(5), int64_t(5)},
                       {int64_t(9), int64_t(5)}},
                      {DataType::kInt64, DataType::kInt64});
  ColumnVector out;
  ASSERT_TRUE(Lt(Col(0, DataType::kInt64), Col(1, DataType::kInt64))
                  ->Eval(b, &out).ok());
  EXPECT_EQ(out.ints, (std::vector<int64_t>{1, 0, 0}));
  ASSERT_TRUE(Ge(Col(0, DataType::kInt64), Col(1, DataType::kInt64))
                  ->Eval(b, &out).ok());
  EXPECT_EQ(out.ints, (std::vector<int64_t>{0, 1, 1}));
  ASSERT_TRUE(Eq(Col(0, DataType::kInt64), ConstInt(5))->Eval(b, &out).ok());
  EXPECT_EQ(out.ints, (std::vector<int64_t>{0, 1, 0}));
}

TEST(ExprTest, NullPropagationThreeValuedLogic) {
  Batch b = MakeBatch({{Value{}, int64_t(1)}, {int64_t(2), Value{}}},
                      {DataType::kInt64, DataType::kInt64});
  ColumnVector out;
  // NULL < 1 -> NULL; filter mask treats it as false.
  std::vector<uint8_t> mask;
  auto pred = Lt(Col(0, DataType::kInt64), Col(1, DataType::kInt64));
  ASSERT_TRUE(pred->EvalMask(b, &mask).ok());
  EXPECT_EQ(mask, (std::vector<uint8_t>{0, 0}));
  // (x IS NULL) OR (y IS NULL) is true for both.
  auto isnull = Or(IsNull(Col(0, DataType::kInt64)),
                   IsNull(Col(1, DataType::kInt64)));
  ASSERT_TRUE(isnull->EvalMask(b, &mask).ok());
  EXPECT_EQ(mask, (std::vector<uint8_t>{1, 1}));
  // AND short-circuit semantics: (false AND NULL) == false, not NULL.
  Batch b2 = MakeBatch({{int64_t(0), Value{}}},
                       {DataType::kInt64, DataType::kInt64});
  auto and_expr = And(Gt(Col(0, DataType::kInt64), ConstInt(5)),
                      Gt(Col(1, DataType::kInt64), ConstInt(0)));
  ColumnVector v;
  ASSERT_TRUE(and_expr->Eval(b2, &v).ok());
  EXPECT_EQ(v.nulls[0], 0);
  EXPECT_EQ(v.ints[0], 0);
}

TEST(ExprTest, ArithmeticTypePromotion) {
  Batch b = MakeBatch({{int64_t(3), 2.5}}, {DataType::kInt64,
                                            DataType::kDouble});
  ColumnVector out;
  ASSERT_TRUE(Add(Col(0, DataType::kInt64), Col(1, DataType::kDouble))
                  ->Eval(b, &out).ok());
  EXPECT_EQ(out.type, DataType::kDouble);
  EXPECT_DOUBLE_EQ(out.dbls[0], 5.5);
  // Pure integer arithmetic stays integral.
  ASSERT_TRUE(Mul(Col(0, DataType::kInt64), ConstInt(4))->Eval(b, &out).ok());
  EXPECT_EQ(out.type, DataType::kInt64);
  EXPECT_EQ(out.ints[0], 12);
  // Division by zero yields NULL, not a crash.
  ASSERT_TRUE(Div(Col(1, DataType::kDouble), ConstDouble(0.0))
                  ->Eval(b, &out).ok());
  EXPECT_EQ(out.nulls[0], 1);
}

TEST(ExprTest, LikeMatcher) {
  EXPECT_TRUE(Expr::LikeMatch("PROMO BRUSHED TIN", "PROMO%"));
  EXPECT_TRUE(Expr::LikeMatch("forest green", "%green%"));
  EXPECT_TRUE(Expr::LikeMatch("special packed requests", "%special%requests%"));
  EXPECT_FALSE(Expr::LikeMatch("nothing here", "%special%requests%"));
  EXPECT_TRUE(Expr::LikeMatch("abc", "a_c"));
  EXPECT_FALSE(Expr::LikeMatch("abbc", "a_c"));
  EXPECT_TRUE(Expr::LikeMatch("", "%"));
  EXPECT_FALSE(Expr::LikeMatch("", "_"));
  EXPECT_TRUE(Expr::LikeMatch("xyz", "%%z"));
}

TEST(ExprTest, CaseSubstrYearIn) {
  Batch b = MakeBatch({{std::string("13-555"), int64_t(MakeDate(1995, 6, 1))},
                       {std::string("99-000"), int64_t(MakeDate(1996, 1, 2))}},
                      {DataType::kString, DataType::kDate});
  ColumnVector out;
  ASSERT_TRUE(Substr(Col(0, DataType::kString), 1, 2)->Eval(b, &out).ok());
  EXPECT_EQ(out.strs[0], "13");
  ASSERT_TRUE(Year(Col(1, DataType::kDate))->Eval(b, &out).ok());
  EXPECT_EQ(out.ints[0], 1995);
  EXPECT_EQ(out.ints[1], 1996);
  auto in = In(Substr(Col(0, DataType::kString), 1, 2),
               {std::string("13"), std::string("31")});
  ASSERT_TRUE(in->Eval(b, &out).ok());
  EXPECT_EQ(out.ints[0], 1);
  EXPECT_EQ(out.ints[1], 0);
  auto c = Case(Eq(Year(Col(1, DataType::kDate)), ConstInt(1995)),
                ConstInt(10), ConstInt(20));
  ASSERT_TRUE(c->Eval(b, &out).ok());
  EXPECT_EQ(out.ints, (std::vector<int64_t>{10, 20}));
}

class OperatorTest : public ::testing::Test {
 protected:
  OperatorTest() : pool_(4) {
    ctx_.pool = &pool_;
    ctx_.parallelism = 4;
    ctx_.read_vid = kMaxVid;
  }
  PhysOpRef Values(std::vector<Row> rows, std::vector<DataType> types) {
    return std::make_shared<ValuesOp>(types, std::move(rows));
  }
  ThreadPool pool_;
  ExecContext ctx_;
};

TEST_F(OperatorTest, FilterAndProject) {
  auto values = Values({{int64_t(1)}, {int64_t(2)}, {int64_t(3)},
                        {int64_t(4)}},
                       {DataType::kInt64});
  auto filter = std::make_shared<FilterOp>(
      values, Gt(Col(0, DataType::kInt64), ConstInt(2)));
  auto project = std::make_shared<ProjectOp>(
      filter, std::vector<ExprRef>{Mul(Col(0, DataType::kInt64),
                                       ConstInt(10))});
  std::vector<Row> out;
  ASSERT_TRUE(RunPlan(project, &ctx_, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(AsInt(out[0][0]), 30);
  EXPECT_EQ(AsInt(out[1][0]), 40);
}

TEST_F(OperatorTest, HashJoinVariants) {
  auto left = Values({{int64_t(1), std::string("a")},
                      {int64_t(2), std::string("b")},
                      {int64_t(3), std::string("c")}},
                     {DataType::kInt64, DataType::kString});
  auto right = Values({{int64_t(2), 20.0}, {int64_t(3), 30.0},
                       {int64_t(3), 33.0}},
                      {DataType::kInt64, DataType::kDouble});
  // Inner: 1 match for key 2, two for key 3.
  auto inner = std::make_shared<HashJoinOp>(right, left, std::vector<int>{0},
                                            std::vector<int>{0},
                                            JoinType::kInner);
  std::vector<Row> out;
  ASSERT_TRUE(RunPlan(inner, &ctx_, &out).ok());
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].size(), 4u);  // probe cols + build cols
  // Left outer keeps unmatched key 1 with nulls.
  auto leftj = std::make_shared<HashJoinOp>(right, left, std::vector<int>{0},
                                            std::vector<int>{0},
                                            JoinType::kLeft);
  ASSERT_TRUE(RunPlan(leftj, &ctx_, &out).ok());
  EXPECT_EQ(out.size(), 4u);
  int nulls = 0;
  for (auto& r : out) {
    if (IsNull(r[2])) nulls++;
  }
  EXPECT_EQ(nulls, 1);
  // Semi / anti.
  auto semi = std::make_shared<HashJoinOp>(right, left, std::vector<int>{0},
                                           std::vector<int>{0},
                                           JoinType::kSemi);
  ASSERT_TRUE(RunPlan(semi, &ctx_, &out).ok());
  EXPECT_EQ(out.size(), 2u);
  auto anti = std::make_shared<HashJoinOp>(right, left, std::vector<int>{0},
                                           std::vector<int>{0},
                                           JoinType::kAnti);
  ASSERT_TRUE(RunPlan(anti, &ctx_, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(AsInt(out[0][0]), 1);
}

TEST_F(OperatorTest, NullKeysNeverJoin) {
  auto left = Values({{Value{}, int64_t(1)}, {int64_t(2), int64_t(2)}},
                     {DataType::kInt64, DataType::kInt64});
  auto right = Values({{Value{}, int64_t(10)}, {int64_t(2), int64_t(20)}},
                      {DataType::kInt64, DataType::kInt64});
  auto inner = std::make_shared<HashJoinOp>(right, left, std::vector<int>{0},
                                            std::vector<int>{0},
                                            JoinType::kInner);
  std::vector<Row> out;
  ASSERT_TRUE(RunPlan(inner, &ctx_, &out).ok());
  ASSERT_EQ(out.size(), 1u);  // only the 2-2 pair
  EXPECT_EQ(AsInt(out[0][0]), 2);
}

TEST_F(OperatorTest, HashAggAllKinds) {
  auto values = Values({{std::string("a"), 1.0},
                        {std::string("a"), 3.0},
                        {std::string("b"), 10.0},
                        {std::string("a"), Value{}},
                        {std::string("b"), 10.0}},
                       {DataType::kString, DataType::kDouble});
  std::vector<AggSpec> aggs = {
      {AggKind::kSum, Col(1, DataType::kDouble)},
      {AggKind::kAvg, Col(1, DataType::kDouble)},
      {AggKind::kCount, Col(1, DataType::kDouble)},
      {AggKind::kCountStar, nullptr},
      {AggKind::kMin, Col(1, DataType::kDouble)},
      {AggKind::kMax, Col(1, DataType::kDouble)},
      {AggKind::kCountDistinct, Col(1, DataType::kDouble)},
  };
  auto agg = std::make_shared<HashAggOp>(values, std::vector<int>{0}, aggs);
  auto sort = std::make_shared<SortOp>(agg, std::vector<SortKey>{{0, false}});
  std::vector<Row> out;
  ASSERT_TRUE(RunPlan(sort, &ctx_, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  // Group "a": sum 4, avg 2, count(v) 2 (null skipped), count(*) 3.
  EXPECT_EQ(AsString(out[0][0]), "a");
  EXPECT_DOUBLE_EQ(AsDouble(out[0][1]), 4.0);
  EXPECT_DOUBLE_EQ(AsDouble(out[0][2]), 2.0);
  EXPECT_EQ(AsInt(out[0][3]), 2);
  EXPECT_EQ(AsInt(out[0][4]), 3);
  EXPECT_DOUBLE_EQ(AsDouble(out[0][5]), 1.0);
  EXPECT_DOUBLE_EQ(AsDouble(out[0][6]), 3.0);
  EXPECT_EQ(AsInt(out[0][7]), 2);
  // Group "b": distinct count dedups the two 10.0 values.
  EXPECT_EQ(AsInt(out[1][7]), 1);
}

// Hash keys must be exact: doubles that differ below 1e-6 are distinct keys,
// negative doubles are ordinary keys, and -0.0 equals 0.0 (CompareValues).
TEST_F(OperatorTest, GroupByDoubleKeysIsExact) {
  auto values = Values({{0.1234561}, {0.1234562}, {-1.5}, {-2.5}, {0.0},
                        {-0.0}},
                       {DataType::kDouble});
  auto agg = std::make_shared<HashAggOp>(
      values, std::vector<int>{0},
      std::vector<AggSpec>{{AggKind::kCountStar, nullptr}});
  auto sort = std::make_shared<SortOp>(agg, std::vector<SortKey>{{0, false}});
  std::vector<Row> out;
  ASSERT_TRUE(RunPlan(sort, &ctx_, &out).ok());
  ASSERT_EQ(out.size(), 5u);
  const std::vector<double> keys = {-2.5, -1.5, 0.0, 0.1234561, 0.1234562};
  const std::vector<int64_t> counts = {1, 1, 2, 1, 1};
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(AsDouble(out[i][0]), keys[i]) << i;
    EXPECT_EQ(AsInt(out[i][1]), counts[i]) << i;
  }
}

TEST_F(OperatorTest, JoinOnDoubleKeysMatchesOnlyEqualValues) {
  auto build = Values({{0.1234561, int64_t(1)},
                       {0.1234562, int64_t(2)},
                       {-1.5, int64_t(3)},
                       {0.0, int64_t(4)}},
                      {DataType::kDouble, DataType::kInt64});
  auto probe = Values({{0.1234561, int64_t(10)},
                       {-2.5, int64_t(20)},
                       {-0.0, int64_t(30)},
                       {-1.5, int64_t(40)}},
                      {DataType::kDouble, DataType::kInt64});
  auto inner = std::make_shared<HashJoinOp>(build, probe, std::vector<int>{0},
                                            std::vector<int>{0},
                                            JoinType::kInner);
  auto sort = std::make_shared<SortOp>(inner, std::vector<SortKey>{{1, false}});
  std::vector<Row> out;
  ASSERT_TRUE(RunPlan(sort, &ctx_, &out).ok());
  // (probe tag, build tag): -2.5 and 0.1234562 find no partner.
  const std::vector<std::pair<int64_t, int64_t>> want = {
      {10, 1}, {30, 4}, {40, 3}};
  ASSERT_EQ(out.size(), want.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(AsInt(out[i][1]), want[i].first) << i;
    EXPECT_EQ(AsInt(out[i][3]), want[i].second) << i;
    EXPECT_EQ(CompareValues(out[i][0], out[i][2]), 0) << i;
  }
}

TEST_F(OperatorTest, CountDistinctDoublesCountsEachValue) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto values = Values({{0.1234561}, {0.1234562}, {0.1234562}, {-1.5},
                        {-2.5}, {-2.5}, {0.0}, {-0.0}, {nan}, {-nan}},
                       {DataType::kDouble});
  auto agg = std::make_shared<HashAggOp>(
      values, std::vector<int>{},
      std::vector<AggSpec>{{AggKind::kCountDistinct,
                            Col(0, DataType::kDouble)}});
  std::vector<Row> out;
  ASSERT_TRUE(RunPlan(agg, &ctx_, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  // 0.1234561, 0.1234562, -1.5, -2.5, zero (either sign), NaN (either sign).
  EXPECT_EQ(AsInt(out[0][0]), 6);
}

TEST_F(OperatorTest, GlobalAggOnEmptyInputReturnsOneRow) {
  auto values = Values({}, {DataType::kDouble});
  auto agg = std::make_shared<HashAggOp>(
      values, std::vector<int>{},
      std::vector<AggSpec>{{AggKind::kCountStar, nullptr},
                           {AggKind::kSum, Col(0, DataType::kDouble)}});
  std::vector<Row> out;
  ASSERT_TRUE(RunPlan(agg, &ctx_, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(AsInt(out[0][0]), 0);
  EXPECT_TRUE(IsNull(out[0][1]));  // SUM of nothing is NULL
}

TEST_F(OperatorTest, SortWithLimitAndDirections) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({i % 10, i});
  auto values = Values(rows, {DataType::kInt64, DataType::kInt64});
  auto sort = std::make_shared<SortOp>(
      values, std::vector<SortKey>{{0, true}, {1, false}}, 5);
  std::vector<Row> out;
  ASSERT_TRUE(RunPlan(sort, &ctx_, &out).ok());
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(AsInt(out[0][0]), 9);
  EXPECT_EQ(AsInt(out[0][1]), 9);  // smallest i with key 9
  EXPECT_EQ(AsInt(out[4][1]), 49);
}

TEST_F(OperatorTest, LimitCutsAcrossBatches) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 5000; ++i) rows.push_back({i});
  auto values = Values(rows, {DataType::kInt64});
  auto limit = std::make_shared<LimitOp>(values, 3000);
  std::vector<Row> out;
  ASSERT_TRUE(RunPlan(limit, &ctx_, &out).ok());
  EXPECT_EQ(out.size(), 3000u);
}

TEST(CompactBatchTest, RemovesMaskedRowsInPlace) {
  Batch b = Batch::Make({DataType::kInt64, DataType::kString});
  for (int64_t i = 0; i < 6; ++i) {
    b.cols[0].AppendInt(i);
    b.cols[1].AppendString("s" + std::to_string(i));
    b.rows++;
  }
  CompactBatch(&b, {1, 0, 1, 0, 0, 1});
  ASSERT_EQ(b.rows, 3u);
  EXPECT_EQ(b.cols[0].ints, (std::vector<int64_t>{0, 2, 5}));
  EXPECT_EQ(b.cols[1].strs[2], "s5");
}

}  // namespace
}  // namespace imci
