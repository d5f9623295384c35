#ifndef POLARDB_IMCI_EXEC_OPERATORS_H_
#define POLARDB_IMCI_EXEC_OPERATORS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "exec/expr.h"
#include "exec/vector.h"
#include "imci/column_index.h"
#include "rowstore/table.h"

namespace imci {

/// Per-query execution context: worker pool, intra-query parallelism degree
/// and the pinned read view (§6.4 consistency).
struct ExecContext {
  ThreadPool* pool = nullptr;
  /// Intra-query degree of parallelism. 1 is the reference serial path;
  /// every parallel operator must produce results equivalent to it.
  int parallelism = 1;
  Vid read_vid = kMaxVid;
  /// Pack min/max pruning toggle (pruning ablation and the "pure columnar
  /// comparator" configuration of the Figure 9 bench).
  bool pruning_enabled = true;
  /// Morsel size for column scans, in row groups: workers claim this many
  /// consecutive row groups per dispatch. Row groups are the natural split
  /// (pruning metadata and visibility bitmaps are group-granular), so a
  /// morsel never cuts a group in half.
  int morsel_row_groups = 1;
};

/// Physical operator base. Operators run batch-at-a-time internally and
/// materialize their result (RowSet) as the boundary between pipelines;
/// scans/aggregations/joins parallelize internally (§6.3 parallel operators).
class PhysOp {
 public:
  virtual ~PhysOp() = default;
  virtual Status Execute(ExecContext* ctx, RowSet* out) = 0;
  const std::vector<DataType>& out_types() const { return out_types_; }

 protected:
  std::vector<DataType> out_types_;
};

using PhysOpRef = std::shared_ptr<PhysOp>;

/// Removes rows where mask==0 (in place helper shared by operators).
void CompactBatch(Batch* batch, const std::vector<uint8_t>& mask);

// --- Scans -------------------------------------------------------------

/// Value-range restriction for distributed fragment scans: the scan emits
/// only rows whose `col` (schema ordinal, normally the PK) lies within
/// [lo, hi], with either bound optionally open. Ranges are over PK *values*,
/// not RIDs or row-group indexes — Phase#2 parallel apply and per-node
/// compaction make physical layout node-dependent, so value ranges are the
/// only partitioning that is disjoint-and-complete across replicas. This is
/// a correctness restriction, independent of the pruning toggle; Pack
/// min/max metadata still skips whole groups outside the range.
struct ScanPartition {
  int col = -1;  // -1: unpartitioned
  bool has_lo = false, has_hi = false;
  int64_t lo = 0, hi = 0;
};

/// Vectorized scan over a column index (§6.3 TableScan): group-granular
/// morsels fetched concurrently in a non-interleaved manner, Pack min/max
/// pruning (§4.1 Pack Meta), visibility filtering at the pinned read view,
/// and pushed-down predicate evaluation. Output columns are the requested
/// schema ordinals, in order.
class ColumnScanOp : public PhysOp {
 public:
  /// `filter` refers to *output* ordinals (positions in `cols`).
  ColumnScanOp(ColumnIndex* index, std::vector<int> cols, ExprRef filter,
               ScanPartition part = ScanPartition());

  Status Execute(ExecContext* ctx, RowSet* out) override;

  uint64_t groups_pruned() const { return groups_pruned_; }
  uint64_t groups_scanned() const { return groups_scanned_; }

 private:
  bool GroupPrunable(const RowGroup& g) const;
  bool PartitionSkipsGroup(const RowGroup& g) const;
  Status ScanGroup(const RowGroup& g, uint32_t used, Vid read_vid,
                   RowSet* out) const;

  ColumnIndex* index_;
  std::vector<int> cols_;   // schema ordinals
  std::vector<int> packs_;  // pack ordinals, parallel to cols_
  ExprRef filter_;
  ScanPartition part_;
  int part_pack_ = -1;
  std::vector<IntBound> bounds_;  // filter conjuncts over output ordinals
  mutable std::atomic<uint64_t> groups_pruned_{0};
  mutable std::atomic<uint64_t> groups_scanned_{0};
};

/// Row-store scan for the row-based engine: walks the B+tree in PK order
/// with early materialization (the full row image is decoded from the leaf
/// even if few columns are needed — the read amplification the paper's §8.2
/// attributes the row store's OLAP slowness to). Optionally uses a
/// secondary-index or PK range instead of a full scan.
class RowScanOp : public PhysOp {
 public:
  struct IndexHint {
    IndexHint() : col(-1), lo(0), hi(0) {}
    IndexHint(int c, int64_t l, int64_t h) : col(c), lo(l), hi(h) {}
    int col;  // -1: none; pk_col: PK range; else secondary index
    int64_t lo, hi;
  };

  RowScanOp(const RowTable* table, std::vector<int> cols, ExprRef filter,
            IndexHint hint = IndexHint());

  Status Execute(ExecContext* ctx, RowSet* out) override;

 private:
  void AppendRow(const Row& row, Batch* batch) const;

  const RowTable* table_;
  std::vector<int> cols_;
  ExprRef filter_;
  IndexHint hint_;
};

// --- Relational operators ----------------------------------------------

class FilterOp : public PhysOp {
 public:
  FilterOp(PhysOpRef child, ExprRef pred);
  Status Execute(ExecContext* ctx, RowSet* out) override;

 private:
  PhysOpRef child_;
  ExprRef pred_;
};

class ProjectOp : public PhysOp {
 public:
  ProjectOp(PhysOpRef child, std::vector<ExprRef> exprs);
  Status Execute(ExecContext* ctx, RowSet* out) override;

 private:
  PhysOpRef child_;
  std::vector<ExprRef> exprs_;
};

enum class JoinType { kInner, kLeft, kSemi, kAnti };

/// In-memory hash join (§6.3). The build side is partitioned at the source:
/// each build batch hashes its keys once and routes (hash, row) to a
/// partition by the top hash bits; each partition then builds, lock-free, one
/// flat open-addressing key table plus per-key chains of (batch, row) refs in
/// build order. Probes run in parallel over probe batches, so a probe row's
/// matches come out in build order at any dop. Inner and left-outer emit
/// probe columns followed by build columns; semi/anti emit probe columns
/// only.
class HashJoinOp : public PhysOp {
 public:
  HashJoinOp(PhysOpRef build, PhysOpRef probe, std::vector<int> build_keys,
             std::vector<int> probe_keys, JoinType type);

  Status Execute(ExecContext* ctx, RowSet* out) override;

 private:
  PhysOpRef build_, probe_;
  std::vector<int> build_keys_, probe_keys_;
  JoinType type_;
};

/// kSumInt is internal to distributed execution: the coordinator's final
/// aggregation folds partial COUNTs with an int64-typed sum, so merged
/// counts stay integers (a double SUM would change the result type).
enum class AggKind {
  kSum, kCount, kCountStar, kAvg, kMin, kMax, kCountDistinct, kSumInt,
};

struct AggSpec {
  AggKind kind;
  ExprRef arg;  // null for kCountStar
};

/// Hash aggregation, partitioned at the source (§6.3; the two-phase
/// aggregation of Leis et al., "Morsel-Driven Parallelism"). Each worker
/// aggregates its batches into P slices picked by the key hash's top bits;
/// a slice is a flat open-addressing key table with accumulators in flat
/// arrays and COUNT DISTINCT values in one more key table. Merge p folds
/// slice p of every worker into worker 0's slice p, in worker order, reusing
/// the stored hashes. Output: group columns (in given order) then one column
/// per agg.
class HashAggOp : public PhysOp {
 public:
  HashAggOp(PhysOpRef child, std::vector<int> group_cols,
            std::vector<AggSpec> aggs);

  Status Execute(ExecContext* ctx, RowSet* out) override;

 private:
  PhysOpRef child_;
  std::vector<int> group_cols_;
  std::vector<AggSpec> aggs_;
};

struct SortKey {
  int col;
  bool desc = false;
};

class SortOp : public PhysOp {
 public:
  SortOp(PhysOpRef child, std::vector<SortKey> keys, int64_t limit = -1);
  Status Execute(ExecContext* ctx, RowSet* out) override;

 private:
  PhysOpRef child_;
  std::vector<SortKey> keys_;
  int64_t limit_;
};

class LimitOp : public PhysOp {
 public:
  LimitOp(PhysOpRef child, int64_t limit);
  Status Execute(ExecContext* ctx, RowSet* out) override;

 private:
  PhysOpRef child_;
  int64_t limit_;
};

/// Materialized constant input (used for scalar-subquery results).
class ValuesOp : public PhysOp {
 public:
  ValuesOp(std::vector<DataType> types, std::vector<Row> rows);
  Status Execute(ExecContext* ctx, RowSet* out) override;

 private:
  std::vector<Row> rows_;
};

// --- Result helpers ------------------------------------------------------

/// Flattens a RowSet to value rows (tests, examples, result comparison).
std::vector<Row> ToRows(const RowSet& set);
/// Runs the plan and flattens.
Status RunPlan(const PhysOpRef& root, ExecContext* ctx, std::vector<Row>* out);

}  // namespace imci

#endif  // POLARDB_IMCI_EXEC_OPERATORS_H_
