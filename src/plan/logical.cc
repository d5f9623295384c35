#include "plan/logical.h"

namespace imci {

namespace {
LogicalRef NewNode(LogicalKind kind) {
  auto n = std::make_shared<LogicalNode>();
  n->kind = kind;
  return n;
}
}  // namespace

LogicalRef LScan(TableId table, std::vector<int> cols, ExprRef filter) {
  auto n = NewNode(LogicalKind::kScan);
  n->table_id = table;
  n->cols = std::move(cols);
  n->filter = std::move(filter);
  return n;
}

LogicalRef LFilter(LogicalRef child, ExprRef pred) {
  auto n = NewNode(LogicalKind::kFilter);
  n->children = {std::move(child)};
  n->exprs = {std::move(pred)};
  return n;
}

LogicalRef LProject(LogicalRef child, std::vector<ExprRef> exprs) {
  auto n = NewNode(LogicalKind::kProject);
  n->children = {std::move(child)};
  n->exprs = std::move(exprs);
  return n;
}

LogicalRef LJoin(LogicalRef left_probe, LogicalRef right_build,
                 std::vector<int> left_keys, std::vector<int> right_keys,
                 JoinType type) {
  auto n = NewNode(LogicalKind::kJoin);
  n->children = {std::move(left_probe), std::move(right_build)};
  n->left_keys = std::move(left_keys);
  n->right_keys = std::move(right_keys);
  n->join_type = type;
  return n;
}

LogicalRef LAgg(LogicalRef child, std::vector<int> group_cols,
                std::vector<AggSpec> aggs) {
  auto n = NewNode(LogicalKind::kAgg);
  n->children = {std::move(child)};
  n->group_cols = std::move(group_cols);
  n->aggs = std::move(aggs);
  return n;
}

LogicalRef LSort(LogicalRef child, std::vector<SortKey> keys, int64_t limit) {
  auto n = NewNode(LogicalKind::kSort);
  n->children = {std::move(child)};
  n->sort_keys = std::move(keys);
  n->limit = limit;
  return n;
}

LogicalRef LLimit(LogicalRef child, int64_t limit) {
  auto n = NewNode(LogicalKind::kLimit);
  n->children = {std::move(child)};
  n->limit = limit;
  return n;
}

LogicalRef LValues(std::vector<DataType> types, std::vector<Row> rows) {
  auto n = NewNode(LogicalKind::kValues);
  n->value_types = std::move(types);
  n->literal_rows = std::move(rows);
  return n;
}

namespace {

template <typename ScanLower>
Status Lower(const LogicalRef& node, const ScanLower& scan_lower,
             PhysOpRef* out) {
  switch (node->kind) {
    case LogicalKind::kScan:
      return scan_lower(*node, out);
    case LogicalKind::kFilter: {
      PhysOpRef child;
      IMCI_RETURN_NOT_OK(Lower(node->children[0], scan_lower, &child));
      *out = std::make_shared<FilterOp>(std::move(child), node->exprs[0]);
      return Status::OK();
    }
    case LogicalKind::kProject: {
      PhysOpRef child;
      IMCI_RETURN_NOT_OK(Lower(node->children[0], scan_lower, &child));
      *out = std::make_shared<ProjectOp>(std::move(child), node->exprs);
      return Status::OK();
    }
    case LogicalKind::kJoin: {
      PhysOpRef probe, build;
      IMCI_RETURN_NOT_OK(Lower(node->children[0], scan_lower, &probe));
      IMCI_RETURN_NOT_OK(Lower(node->children[1], scan_lower, &build));
      *out = std::make_shared<HashJoinOp>(std::move(build), std::move(probe),
                                          node->right_keys, node->left_keys,
                                          node->join_type);
      return Status::OK();
    }
    case LogicalKind::kAgg: {
      PhysOpRef child;
      IMCI_RETURN_NOT_OK(Lower(node->children[0], scan_lower, &child));
      *out = std::make_shared<HashAggOp>(std::move(child), node->group_cols,
                                         node->aggs);
      return Status::OK();
    }
    case LogicalKind::kSort: {
      PhysOpRef child;
      IMCI_RETURN_NOT_OK(Lower(node->children[0], scan_lower, &child));
      *out = std::make_shared<SortOp>(std::move(child), node->sort_keys,
                                      node->limit);
      return Status::OK();
    }
    case LogicalKind::kLimit: {
      PhysOpRef child;
      IMCI_RETURN_NOT_OK(Lower(node->children[0], scan_lower, &child));
      *out = std::make_shared<LimitOp>(std::move(child), node->limit);
      return Status::OK();
    }
    case LogicalKind::kValues:
      *out = std::make_shared<ValuesOp>(node->value_types,
                                        node->literal_rows);
      return Status::OK();
  }
  return Status::NotSupported("logical kind");
}

}  // namespace

Status LowerToColumnPlan(const LogicalRef& node, const ImciStore* imci,
                         PhysOpRef* out) {
  auto scan_lower = [imci](const LogicalNode& scan, PhysOpRef* o) -> Status {
    ColumnIndex* index = imci->GetIndex(scan.table_id);
    if (index == nullptr) return Status::NotFound("column index");
    ScanPartition part;
    part.col = scan.part_col;
    part.has_lo = scan.part_has_lo;
    part.has_hi = scan.part_has_hi;
    part.lo = scan.part_lo;
    part.hi = scan.part_hi;
    *o = std::make_shared<ColumnScanOp>(index, scan.cols, scan.filter, part);
    return Status::OK();
  };
  return Lower(node, scan_lower, out);
}

Status LowerToRowPlan(const LogicalRef& node, const RowStoreEngine* rows,
                      PhysOpRef* out) {
  auto scan_lower = [rows](const LogicalNode& scan, PhysOpRef* o) -> Status {
    const RowTable* table = rows->GetTable(scan.table_id);
    if (table == nullptr) return Status::NotFound("row table");
    // Fragment plans are column-engine only; refuse rather than silently
    // returning unpartitioned rows.
    if (scan.part_col >= 0) {
      return Status::NotSupported("partitioned scan on row engine");
    }
    // Access-path selection: use an index when the predicate bounds an
    // indexed column (the paper's "indexes built in row-based PolarDB were
    // more efficient to handle point queries", §8.2 on Q2).
    RowScanOp::IndexHint hint;
    std::vector<IntBound> bounds;
    ExtractIntBounds(scan.filter, &bounds);
    for (const IntBound& b : bounds) {
      if (b.col < 0 || b.col >= static_cast<int>(scan.cols.size())) continue;
      if (!b.has_lo || !b.has_hi) continue;
      const int schema_col = scan.cols[b.col];
      if (schema_col == table->schema().pk_col() ||
          table->HasIndexOn(schema_col)) {
        hint = RowScanOp::IndexHint(schema_col, b.lo, b.hi);
        break;
      }
    }
    *o = std::make_shared<RowScanOp>(table, scan.cols, scan.filter, hint);
    return Status::OK();
  };
  return Lower(node, scan_lower, out);
}

}  // namespace imci
