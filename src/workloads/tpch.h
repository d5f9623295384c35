#ifndef POLARDB_IMCI_WORKLOADS_TPCH_H_
#define POLARDB_IMCI_WORKLOADS_TPCH_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/schema.h"
#include "plan/logical.h"

namespace imci {
namespace tpch {

/// Table ids of the TPC-H schema.
enum TpchTable : TableId {
  kRegion = 1, kNation = 2, kSupplier = 3, kPart = 4,
  kPartsupp = 5, kCustomer = 6, kOrders = 7, kLineitem = 8,
};

/// Deterministic dbgen-style generator. Composite-key tables (lineitem,
/// partsupp) carry a synthetic packed INT64 primary key as column 0 — the
/// row store's B+tree and the column index's RID locator are both keyed by
/// a single INT64 PK, so composite keys are packed into one; queries never
/// read it. Value distributions (dates, flags, segments, brands, nation/region
/// names, comment keywords) follow the TPC-H spec closely enough that all
/// 22 query predicates select realistic fractions.
class TpchGen {
 public:
  explicit TpchGen(double scale_factor, uint64_t seed = 20230618);

  /// Registers the eight schemas.
  std::vector<std::shared_ptr<const Schema>> Schemas() const;

  /// Generates all rows of one table.
  std::vector<Row> Generate(TpchTable table);

  int64_t num_orders() const { return n_orders_; }

  static int64_t LineitemPk(int64_t orderkey, int linenumber) {
    return orderkey * 8 + linenumber;
  }
  static int64_t PartsuppPk(int64_t partkey, int64_t suppkey) {
    return partkey * 16384 + (suppkey % 16384);
  }

 private:
  double sf_;
  uint64_t seed_;
  int64_t n_customer_, n_orders_, n_part_, n_supplier_, n_partsupp_;
};

/// Column ordinal lookup helper for plan building.
int ColOf(const Schema& schema, const std::string& name);

/// Runs TPC-H query `q` (1..22). Queries that contain scalar subqueries run
/// them through `exec` first and embed the results as constants — the same
/// plan DSL both engines consume, so results are engine-independent.
using ExecFn = std::function<Status(const LogicalRef&, std::vector<Row>*)>;
Status RunQuery(int q, const Catalog& catalog, const ExecFn& exec,
                std::vector<Row>* out);

}  // namespace tpch
}  // namespace imci

#endif  // POLARDB_IMCI_WORKLOADS_TPCH_H_
