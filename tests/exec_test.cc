#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>

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

/// Emits `rows` in batches of `batch_rows`, so hash-operator inputs span
/// many batches and, at dop > 1, every worker.
class BatchedValuesOp : public PhysOp {
 public:
  BatchedValuesOp(std::vector<DataType> types, std::vector<Row> rows,
                  size_t batch_rows)
      : rows_(std::move(rows)), batch_rows_(batch_rows) {
    out_types_ = std::move(types);
  }
  Status Execute(ExecContext* /*ctx*/, RowSet* out) override {
    out->types = out_types_;
    for (size_t i = 0; i < rows_.size(); i += batch_rows_) {
      Batch b = Batch::Make(out_types_);
      for (size_t r = i; r < std::min(rows_.size(), i + batch_rows_); ++r) {
        for (size_t c = 0; c < rows_[r].size(); ++c) {
          b.cols[c].AppendValue(rows_[r][c]);
        }
        b.rows++;
      }
      out->batches.push_back(std::move(b));
    }
    return Status::OK();
  }

 private:
  std::vector<Row> rows_;
  size_t batch_rows_;
};

/// Hash aggregation and join at dop 1 and 4 over tiny batches, checked
/// against expectations computed with std::map or written out by hand.
class HashOpTest : public ::testing::TestWithParam<int> {
 protected:
  HashOpTest() : pool_(4) {
    ctx_.pool = &pool_;
    ctx_.parallelism = GetParam();
    ctx_.read_vid = kMaxVid;
  }
  static PhysOpRef Batched(std::vector<Row> rows, std::vector<DataType> types,
                           size_t batch_rows) {
    return std::make_shared<BatchedValuesOp>(std::move(types),
                                             std::move(rows), batch_rows);
  }
  std::vector<Row> Run(const PhysOpRef& op) {
    std::vector<Row> out;
    EXPECT_TRUE(RunPlan(op, &ctx_, &out).ok());
    return out;
  }
  ThreadPool pool_;
  ExecContext ctx_;
};

TEST_P(HashOpTest, CountDistinctIsExactWhenGroupsSpanBatches) {
  // Group 7 holds only NULL values; every other group repeats its values.
  // Enough batches that the pool's helpers join in, so at dop 4 a group's
  // values are split over several workers' slices.
  std::vector<Row> rows;
  std::map<int64_t, std::set<int64_t>> want_v;
  std::map<int64_t, std::set<std::string>> want_s;
  std::map<int64_t, int64_t> want_rows;
  for (int64_t i = 0; i < 40000; ++i) {
    const int64_t g = i % 8;
    Value v, s;
    if (g != 7 && i % 10 != 3) {
      v = (i * 13) % (g + 5);
      want_v[g].insert(AsInt(v));
    }
    if (g != 7 && i % 7 != 0) {
      s = "s" + std::to_string(i % (g + 2));
      want_s[g].insert(AsString(s));
    }
    want_rows[g]++;
    rows.push_back({g, v, s});
  }
  auto agg = std::make_shared<HashAggOp>(
      Batched(rows, {DataType::kInt64, DataType::kInt64, DataType::kString},
              3),
      std::vector<int>{0},
      std::vector<AggSpec>{{AggKind::kCountDistinct, Col(1, DataType::kInt64)},
                           {AggKind::kCountStar, nullptr},
                           {AggKind::kCountDistinct,
                            Col(2, DataType::kString)}});
  const std::vector<Row> out = Run(agg);
  ASSERT_EQ(out.size(), want_rows.size());
  for (const Row& r : out) {
    const int64_t g = AsInt(r[0]);
    EXPECT_EQ(AsInt(r[1]), static_cast<int64_t>(want_v[g].size())) << g;
    EXPECT_EQ(AsInt(r[2]), want_rows[g]) << g;
    EXPECT_EQ(AsInt(r[3]), static_cast<int64_t>(want_s[g].size())) << g;
  }
  EXPECT_EQ(want_v[7].size(), 0u);
}

TEST_P(HashOpTest, ManyGroupsAgreeWithStdMap) {
  // 60K groups grow every slice's table several times.
  constexpr int64_t kGroups = 60000;
  std::vector<Row> rows;
  std::map<int64_t, std::pair<int64_t, int64_t>> want;  // sum, count
  for (int64_t i = 0; i < 2 * kGroups; ++i) {
    const int64_t g = (i * 7919) % kGroups;
    rows.push_back({g, i});
    want[g].first += i;
    want[g].second++;
  }
  auto agg = std::make_shared<HashAggOp>(
      Batched(rows, {DataType::kInt64, DataType::kInt64}, 64),
      std::vector<int>{0},
      std::vector<AggSpec>{{AggKind::kSum, Col(1, DataType::kInt64)},
                           {AggKind::kCountStar, nullptr},
                           {AggKind::kSumInt, Col(1, DataType::kInt64)}});
  const std::vector<Row> out = Run(agg);
  ASSERT_EQ(out.size(), want.size());
  std::map<int64_t, std::pair<int64_t, int64_t>> got;
  for (const Row& r : out) {
    EXPECT_EQ(AsDouble(r[1]), static_cast<double>(AsInt(r[3])));
    got[AsInt(r[0])] = {AsInt(r[3]), AsInt(r[2])};
  }
  EXPECT_EQ(got, want);
}

TEST_P(HashOpTest, MinMaxOnStringsAndDoubles) {
  const std::vector<Row> rows = {
      {int64_t(1), std::string("pear"), 2.5},
      {int64_t(2), Value{}, Value{}},
      {int64_t(1), std::string("apple"), -7.25},
      {int64_t(3), std::string("fig"), 1e300},
      {int64_t(1), Value{}, 100.0},
      {int64_t(3), std::string("date"), -1e-300},
      {int64_t(1), std::string("zucchini"), Value{}},
      {int64_t(3), std::string("fig"), 0.5},
      {int64_t(1), std::string("banana"), -7.0},
  };
  auto agg = std::make_shared<HashAggOp>(
      Batched(rows, {DataType::kInt64, DataType::kString, DataType::kDouble},
              2),
      std::vector<int>{0},
      std::vector<AggSpec>{{AggKind::kMin, Col(1, DataType::kString)},
                           {AggKind::kMax, Col(1, DataType::kString)},
                           {AggKind::kMin, Col(2, DataType::kDouble)},
                           {AggKind::kMax, Col(2, DataType::kDouble)}});
  auto sort = std::make_shared<SortOp>(agg, std::vector<SortKey>{{0, false}});
  const std::vector<Row> out = Run(sort);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(AsString(out[0][1]), "apple");
  EXPECT_EQ(AsString(out[0][2]), "zucchini");
  EXPECT_EQ(AsDouble(out[0][3]), -7.25);
  EXPECT_EQ(AsDouble(out[0][4]), 100.0);
  for (int c = 1; c <= 4; ++c) EXPECT_TRUE(IsNull(out[1][c])) << c;
  EXPECT_EQ(AsString(out[2][1]), "date");
  EXPECT_EQ(AsString(out[2][2]), "fig");
  EXPECT_EQ(AsDouble(out[2][3]), -1e-300);
  EXPECT_EQ(AsDouble(out[2][4]), 1e300);
}

TEST_P(HashOpTest, NullGroupKeyFormsItsOwnGroup) {
  const std::vector<Row> rows = {
      {Value{}, int64_t(1)}, {int64_t(1), Value{}}, {Value{}, Value{}},
      {int64_t(1), int64_t(1)}, {Value{}, int64_t(1)}, {Value{}, Value{}},
      {int64_t(1), Value{}}, {int64_t(0), int64_t(0)}, {Value{}, Value{}},
  };
  auto agg = std::make_shared<HashAggOp>(
      Batched(rows, {DataType::kInt64, DataType::kInt64}, 2),
      std::vector<int>{0, 1},
      std::vector<AggSpec>{{AggKind::kCountStar, nullptr}});
  auto sort = std::make_shared<SortOp>(
      agg, std::vector<SortKey>{{0, false}, {1, false}});
  const std::vector<Row> out = Run(sort);
  // NULL sorts first: (N,N) x3, (N,1) x2, (0,0) x1, (1,N) x2, (1,1) x1.
  const std::vector<std::string> want = {"NULL|NULL|3", "NULL|1|2", "0|0|1",
                                         "1|NULL|2", "1|1|1"};
  ASSERT_EQ(out.size(), want.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(ValueToString(out[i][0]) + "|" + ValueToString(out[i][1]) +
                  "|" + ValueToString(out[i][2]),
              want[i]);
  }
}

TEST_P(HashOpTest, GlobalAggOnEmptyInputReturnsExactlyOneRow) {
  auto agg = std::make_shared<HashAggOp>(
      Batched({}, {DataType::kDouble}, 4), std::vector<int>{},
      std::vector<AggSpec>{{AggKind::kCountStar, nullptr},
                           {AggKind::kSum, Col(0, DataType::kDouble)},
                           {AggKind::kCountDistinct, Col(0, DataType::kDouble)},
                           {AggKind::kMin, Col(0, DataType::kDouble)}});
  const std::vector<Row> out = Run(agg);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(AsInt(out[0][0]), 0);
  EXPECT_TRUE(IsNull(out[0][1]));
  EXPECT_EQ(AsInt(out[0][2]), 0);
  EXPECT_TRUE(IsNull(out[0][3]));
}

TEST_P(HashOpTest, JoinEmitsDuplicateMatchesInBuildOrder) {
  // Build rows (key, tag): tag is the build position, key = tag % 5, plus
  // NULL keys that must never match.
  std::vector<Row> build;
  for (int64_t t = 0; t < 60; ++t) {
    build.push_back({t % 9 == 4 ? Value{} : Value{t % 5}, t});
  }
  const std::vector<Row> probe = {
      {int64_t(3), int64_t(100)}, {Value{}, int64_t(101)},
      {int64_t(7), int64_t(102)}, {int64_t(0), int64_t(103)},
      {int64_t(3), int64_t(104)},
  };
  auto join = [&](JoinType type) {
    return std::make_shared<HashJoinOp>(
        Batched(build, {DataType::kInt64, DataType::kInt64}, 7),
        Batched(probe, {DataType::kInt64, DataType::kInt64}, 2),
        std::vector<int>{0}, std::vector<int>{0}, type);
  };
  // Expected rows in emission order: probe order, then build order; the
  // left join adds one NULL-extended row per unmatched probe row.
  std::vector<std::string> inner, left;
  for (const Row& p : probe) {
    const std::string head = ValueToString(p[1]);
    bool matched = false;
    for (const Row& b : build) {
      if (!IsNull(p[0]) && !IsNull(b[0]) && AsInt(p[0]) == AsInt(b[0])) {
        inner.push_back(head + "|" + ValueToString(b[1]));
        left.push_back(inner.back());
        matched = true;
      }
    }
    if (!matched) left.push_back(head + "|NULL");
  }
  auto tags = [&](JoinType type) {
    std::vector<std::string> got;
    for (const Row& r : Run(join(type))) {
      got.push_back(ValueToString(r[1]) +
                    (r.size() > 2 ? "|" + ValueToString(r[3]) : ""));
    }
    return got;
  };
  EXPECT_EQ(inner.size(), 31u);  // key 3: 10 build rows (twice), key 0: 11
  EXPECT_EQ(tags(JoinType::kInner), inner);
  EXPECT_EQ(tags(JoinType::kLeft), left);
  EXPECT_EQ(tags(JoinType::kSemi),
            (std::vector<std::string>{"100", "103", "104"}));
  EXPECT_EQ(tags(JoinType::kAnti),
            (std::vector<std::string>{"101", "102"}));
}

INSTANTIATE_TEST_SUITE_P(Dop, HashOpTest, ::testing::Values(1, 4));

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
