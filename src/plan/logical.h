#ifndef POLARDB_IMCI_PLAN_LOGICAL_H_
#define POLARDB_IMCI_PLAN_LOGICAL_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/operators.h"
#include "rowstore/engine.h"

namespace imci {

/// Logical plan nodes — the engine-neutral query representation that the
/// optimizer routes (§6.1) and lowers to either execution engine (§6.2:
/// "instead of top-down constructing a column-oriented execution plan,
/// PolarDB-IMCI transforms it from the row-oriented one"; here both physical
/// plans are lowered from the same logical plan, preserving behaviour —
/// implicit casts, error surfaces — across engines by construction).
enum class LogicalKind : uint8_t {
  kScan, kFilter, kProject, kJoin, kAgg, kSort, kLimit, kValues,
};

struct LogicalNode;
using LogicalRef = std::shared_ptr<LogicalNode>;

struct LogicalNode {
  LogicalKind kind;
  std::vector<LogicalRef> children;

  // kScan
  TableId table_id = 0;
  std::vector<int> cols;  // schema ordinals, defining output positions
  ExprRef filter;         // over output positions
  // kScan fragment partition (distributed execution): when part_col >= 0 the
  // scan is restricted to rows whose part_col value (a schema ordinal; in
  // practice the PK) lies in [part_lo, part_hi], each bound enabled by its
  // flag. Set only on fragment plans cut by the query coordinator.
  int part_col = -1;
  bool part_has_lo = false, part_has_hi = false;
  int64_t part_lo = 0, part_hi = 0;

  // kFilter / kProject
  std::vector<ExprRef> exprs;

  // kJoin: output = left columns then right columns; the RIGHT child is the
  // hash-build side (queries put the smaller input on the right).
  std::vector<int> left_keys, right_keys;
  JoinType join_type = JoinType::kInner;

  // kAgg
  std::vector<int> group_cols;
  std::vector<AggSpec> aggs;

  // kSort / kLimit
  std::vector<SortKey> sort_keys;
  int64_t limit = -1;

  // kValues
  std::vector<DataType> value_types;
  std::vector<Row> literal_rows;
};

LogicalRef LScan(TableId table, std::vector<int> cols, ExprRef filter = nullptr);
LogicalRef LFilter(LogicalRef child, ExprRef pred);
LogicalRef LProject(LogicalRef child, std::vector<ExprRef> exprs);
LogicalRef LJoin(LogicalRef left_probe, LogicalRef right_build,
                 std::vector<int> left_keys, std::vector<int> right_keys,
                 JoinType type = JoinType::kInner);
LogicalRef LAgg(LogicalRef child, std::vector<int> group_cols,
                std::vector<AggSpec> aggs);
LogicalRef LSort(LogicalRef child, std::vector<SortKey> keys,
                 int64_t limit = -1);
LogicalRef LLimit(LogicalRef child, int64_t n);
LogicalRef LValues(std::vector<DataType> types, std::vector<Row> rows);

/// Lowers to the column-based engine (vectorized scan over column indexes).
Status LowerToColumnPlan(const LogicalRef& node, const ImciStore* imci,
                         PhysOpRef* out);

/// Lowers to the row-based engine (B+tree scans; index hints derived from
/// scan predicates when an index exists).
Status LowerToRowPlan(const LogicalRef& node, const RowStoreEngine* rows,
                      PhysOpRef* out);

}  // namespace imci

#endif  // POLARDB_IMCI_PLAN_LOGICAL_H_
