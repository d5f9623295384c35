#include "plan/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

namespace imci {

void StatsCollector::Collect(const ImciStore& store, int sample_groups) {
  for (ColumnIndex* index : store.All()) {
    TableStats ts;
    ts.row_count = index->next_rid();
    const auto& schema = index->schema();
    ts.cols.resize(schema.num_columns());
    const size_t ngroups = index->num_groups();
    const size_t step = std::max<size_t>(1, ngroups / sample_groups);
    for (int c = 0; c < schema.num_columns(); ++c) {
      const int pack = index->PackForColumn(c);
      if (pack < 0) continue;
      TableStats::ColStats& cs = ts.cols[c];
      std::set<std::string> sample_values;
      size_t sampled_rows = 0;
      for (size_t g = 0; g < ngroups; g += step) {
        auto grp = index->group(g);
        if (!grp) continue;
        const PackMeta m = grp->meta(pack);
        if (!m.has_value) continue;
        if (IsIntegerType(schema.column(c).type)) {
          if (!cs.has_range) {
            cs.min = m.min_i;
            cs.max = m.max_i;
            cs.has_range = true;
          } else {
            cs.min = std::min(cs.min, m.min_i);
            cs.max = std::max(cs.max, m.max_i);
          }
        }
        for (const Value& v : m.sample) {
          sample_values.insert(ValueToString(v));
          ++sampled_rows;
        }
      }
      // Scale the sample's distinct ratio to the table (Haas-Stokes-flavored
      // first-order estimate).
      if (sampled_rows > 0) {
        const double ratio =
            static_cast<double>(sample_values.size()) / sampled_rows;
        cs.ndv = std::max<uint64_t>(
            1, static_cast<uint64_t>(ratio * ts.row_count));
      }
    }
    stats_[schema.table_id()] = std::move(ts);
  }
}

void StatsCollector::CollectRowStore(const RowStoreEngine& engine) {
  for (const auto& schema : engine.catalog()->All()) {
    const RowTable* t = engine.GetTable(schema->table_id());
    if (t == nullptr) continue;
    auto it = stats_.find(schema->table_id());
    if (it == stats_.end()) {
      TableStats ts;
      ts.row_count = t->row_count();
      ts.cols.resize(schema->num_columns());
      stats_[schema->table_id()] = std::move(ts);
    } else {
      // Keep the larger estimate: replica row counters may lag the column
      // index's RID high-water mark.
      it->second.row_count = std::max(it->second.row_count, t->row_count());
    }
  }
}

const TableStats* StatsCollector::Get(TableId id) const {
  auto it = stats_.find(id);
  return it == stats_.end() ? nullptr : &it->second;
}

double EstimateSelectivity(const ExprRef& filter, const TableStats* stats,
                           const std::vector<int>& scan_cols) {
  if (!filter) return 1.0;
  double sel = 1.0;
  std::vector<IntBound> bounds;
  ExtractIntBounds(filter, &bounds);
  bool any_bound = false;
  for (const IntBound& b : bounds) {
    any_bound = true;
    double s = 0.3;
    if (stats != nullptr && b.col >= 0 &&
        b.col < static_cast<int>(scan_cols.size())) {
      const int schema_col = scan_cols[b.col];
      if (schema_col < static_cast<int>(stats->cols.size())) {
        const auto& cs = stats->cols[schema_col];
        if (b.has_lo && b.has_hi && b.lo == b.hi) {
          s = cs.ndv > 0 ? 1.0 / cs.ndv : 0.1;  // equality: 1/NDV
        } else if (cs.has_range && cs.max > cs.min) {
          const double width = static_cast<double>(cs.max - cs.min);
          double lo = b.has_lo ? static_cast<double>(b.lo - cs.min) : 0;
          double hi = b.has_hi ? static_cast<double>(b.hi - cs.min) : width;
          lo = std::clamp(lo, 0.0, width);
          hi = std::clamp(hi, 0.0, width);
          s = hi > lo ? (hi - lo) / width : 0.0;
        }
      }
    }
    sel *= s;
  }
  // Non-range predicates (LIKE / IN / OR trees) contribute a default factor.
  if (!any_bound) sel = 0.25;
  return std::clamp(sel, 1e-6, 1.0);
}

namespace {

PlanCost EstimateNode(const LogicalNode* node, const StatsCollector& stats) {
  PlanCost cost;
  switch (node->kind) {
    case LogicalKind::kScan: {
      const TableStats* ts = stats.Get(node->table_id);
      const double rows = ts ? static_cast<double>(ts->row_count) : 1e6;
      const double sel = EstimateSelectivity(node->filter, ts, node->cols);
      cost.rows_out = rows * sel;
      // The row engine touches every row of a full scan unless an index
      // bounds it; approximate: indexable single-column equality/range ->
      // touched == selected, otherwise full scan.
      std::vector<IntBound> bounds;
      ExtractIntBounds(node->filter, &bounds);
      cost.rows_touched = bounds.empty() ? rows : std::max(1.0, rows * sel);
      return cost;
    }
    case LogicalKind::kJoin: {
      PlanCost l = EstimateNode(node->children[0].get(), stats);
      PlanCost r = EstimateNode(node->children[1].get(), stats);
      // Foreign-key style estimate: |L join R| ~= max(L, R) for inner joins.
      switch (node->join_type) {
        case JoinType::kInner:
        case JoinType::kLeft:
          cost.rows_out = std::max(l.rows_out, r.rows_out);
          break;
        case JoinType::kSemi:
        case JoinType::kAnti:
          cost.rows_out = l.rows_out * 0.5;
          break;
      }
      cost.rows_touched = l.rows_touched + r.rows_touched;
      return cost;
    }
    case LogicalKind::kAgg: {
      PlanCost c = EstimateNode(node->children[0].get(), stats);
      cost.rows_out = node->group_cols.empty()
                          ? 1.0
                          : std::max(1.0, c.rows_out / 16.0);
      cost.rows_touched = c.rows_touched;
      return cost;
    }
    case LogicalKind::kValues:
      cost.rows_out = static_cast<double>(node->literal_rows.size());
      cost.rows_touched = cost.rows_out;
      return cost;
    default: {
      PlanCost c = EstimateNode(node->children[0].get(), stats);
      cost = c;
      if (node->kind == LogicalKind::kFilter) cost.rows_out *= 0.25;
      if (node->kind == LogicalKind::kLimit && node->limit >= 0) {
        cost.rows_out = std::min(cost.rows_out,
                                 static_cast<double>(node->limit));
      }
      return cost;
    }
  }
}

}  // namespace

PlanCost EstimatePlan(const LogicalRef& node, const StatsCollector& stats) {
  return EstimateNode(node.get(), stats);
}

RoutingDecision RouteQuery(const LogicalRef& plan,
                           const StatsCollector& stats) {
  constexpr double kRowCostThreshold = 20000.0;
  PlanCost cost = EstimatePlan(plan, stats);
  RoutingDecision d;
  d.row_cost = cost.rows_touched;
  d.engine = cost.rows_touched > kRowCostThreshold
                 ? EngineChoice::kColumnEngine
                 : EngineChoice::kRowEngine;
  return d;
}

int ChooseDop(const LogicalRef& plan, const StatsCollector& stats,
              int max_dop, double rows_per_worker) {
  if (max_dop <= 1) return 1;
  if (rows_per_worker < 1.0) rows_per_worker = 1.0;
  // rows_touched approximates total scan volume (every scanned relation's
  // selected rows); one worker per rows_per_worker of it — about one 64K
  // row group each — keeps the fan-out cost amortized.
  const PlanCost cost = EstimatePlan(plan, stats);
  const double workers = cost.rows_touched / rows_per_worker;
  if (workers <= 1.0) return 1;
  const double capped = std::min(static_cast<double>(max_dop), workers);
  return static_cast<int>(std::ceil(capped));
}

JoinOrder OrderJoins(const JoinGraph& graph) {
  const int n = static_cast<int>(graph.cardinalities.size());
  JoinOrder result;
  if (n == 0) return result;
  const uint32_t full = (n >= 32) ? ~0u : ((1u << n) - 1);
  // DP over subsets: best[S] = (cost, cardinality, last relation, prev set).
  struct Entry {
    double cost = std::numeric_limits<double>::infinity();
    double card = 0;
    int last = -1;
    uint32_t prev = 0;
    bool valid = false;
  };
  std::vector<Entry> best(full + 1);
  for (int i = 0; i < n; ++i) {
    Entry& e = best[1u << i];
    e.cost = 0;
    e.card = graph.cardinalities[i];
    e.last = i;
    e.valid = true;
  }
  auto edge_sel = [&](uint32_t set, int rel, bool* connected) {
    double sel = 1.0;
    *connected = false;
    for (const auto& e : graph.edges) {
      const bool a_in = (set >> e.a) & 1, b_in = (set >> e.b) & 1;
      if ((a_in && e.b == rel) || (b_in && e.a == rel)) {
        sel *= e.selectivity;
        *connected = true;
      }
    }
    return sel;
  };
  for (uint32_t set = 1; set <= full; ++set) {
    if (!best[set].valid) continue;
    for (int r = 0; r < n; ++r) {
      if ((set >> r) & 1) continue;
      bool connected;
      const double sel = edge_sel(set, r, &connected);
      // Only extend along join edges (avoid cross products) unless nothing
      // is connected at all.
      if (!connected && set != 0 && __builtin_popcount(set) < n - 1) continue;
      const double new_card =
          best[set].card * graph.cardinalities[r] * (connected ? sel : 1.0);
      const double new_cost = best[set].cost + new_card;
      const uint32_t nset = set | (1u << r);
      if (new_cost < best[nset].cost) {
        Entry& e = best[nset];
        e.cost = new_cost;
        e.card = new_card;
        e.last = r;
        e.prev = set;
        e.valid = true;
      }
    }
  }
  // Reconstruct.
  uint32_t cur = full;
  std::vector<int> rev;
  while (cur != 0 && best[cur].valid) {
    rev.push_back(best[cur].last);
    uint32_t prev = best[cur].prev;
    if (prev == 0) break;
    cur = prev;
  }
  std::reverse(rev.begin(), rev.end());
  result.order = rev;
  result.cost = best[full].cost;
  return result;
}

}  // namespace imci
