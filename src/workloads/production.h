#ifndef POLARDB_IMCI_WORKLOADS_PRODUCTION_H_
#define POLARDB_IMCI_WORKLOADS_PRODUCTION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "plan/logical.h"
#include "workloads/tpch.h"

namespace imci {
namespace production {

/// Synthetic stand-ins for the four production customer workloads of §8.6
/// (Table 2): the real Alibaba traces are proprietary, so each profile
/// matches the published aggregate shape — relative DB size, average column
/// counts, average joins per query — scaled down so every profile loads in
/// seconds on one machine. Query sets mix the patterns Figure 15 highlights:
/// selective lookups, wide scans with aggregation, and multi-join analytics.
struct CustomerProfile {
  std::string name;      // e.g. "Cust1: Finance"
  int num_dim_tables;    // small dimension tables
  int64_t fact_rows;     // scaled fact-table size
  int fact_columns;      // matches Table 2's avg #cols
  int avg_joins;         // matches Table 2's avg #joins
  TableId base_table_id;
};

std::vector<CustomerProfile> Profiles(double scale = 1.0);

class CustomerWorkload {
 public:
  explicit CustomerWorkload(CustomerProfile profile, uint64_t seed = 13);

  std::vector<std::shared_ptr<const Schema>> Schemas() const;
  std::vector<Row> Generate(TableId table);

  /// Five representative queries per customer (Figure 15), indexed 0..4,
  /// ranging from selective (Q1) to heavy multi-join aggregations (Q5).
  Status RunQuery(int i, const Catalog& cat, const tpch::ExecFn& exec,
                  std::vector<Row>* out) const;
  static constexpr int kQueriesPerCustomer = 5;

  const CustomerProfile& profile() const { return profile_; }

 private:
  CustomerProfile profile_;
  uint64_t seed_;
};

}  // namespace production
}  // namespace imci

#endif  // POLARDB_IMCI_WORKLOADS_PRODUCTION_H_
