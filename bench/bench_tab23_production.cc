// Reproduces Table 2 (workload shapes), Table 3 (speed-up distribution) and
// Figure 15 (representative query speedups) on the four synthetic customer
// profiles standing in for the production traces, which are proprietary: each
// profile matches the published aggregate shape, scaled down.
#include "bench/bench_util.h"
#include "workloads/production.h"

using namespace imci;
using namespace imci::bench;

int main(int argc, char** argv) {
  const bool smoke = Flag(argc, argv, "smoke", 0) != 0;
  const double scale = Flag(argc, argv, "scale", smoke ? 0.1 : 0.25);
  auto profiles = production::Profiles(scale);
  std::printf("# Table 2 | synthetic production workload shapes\n");
  std::printf("%-24s %12s %8s %10s %10s\n", "workload", "fact_rows", "cols",
              "avg_joins", "queries");
  for (auto& p : profiles) {
    std::printf("%-24s %12ld %8d %10d %10d\n", p.name.c_str(),
                (long)p.fact_rows, p.fact_columns, p.avg_joins,
                production::CustomerWorkload::kQueriesPerCustomer);
  }

  std::printf("\n# Figure 15 + Table 3 | per-query speedups (row engine / "
              "column engine)\n");
  BenchReport report("tab23_production");
  report.Metric("scale", scale);
  report.Metric("smoke", smoke ? 1 : 0);
  int dist[4][5] = {};  // customer x bucket
  const char* buckets[] = {"[1,2)", "[2,5)", "[5,10)", "[10,100)",
                           "[100,inf)"};
  for (size_t ci = 0; ci < profiles.size(); ++ci) {
    production::CustomerWorkload workload(profiles[ci]);
    auto cluster = std::make_unique<Cluster>(ClusterOptions{});
    auto schemas = workload.Schemas();
    for (auto& s : schemas) {
      if (!cluster->CreateTable(s).ok()) return 1;
    }
    for (auto& s : schemas) {
      if (!cluster->BulkLoad(s->table_id(),
                             workload.Generate(s->table_id())).ok()) {
        return 1;
      }
    }
    if (!cluster->Open().ok()) return 1;
    RoNode* ro = cluster->ro(0);
    (void)ro->CatchUpNow();
    ro->RefreshStats();
    std::printf("%s\n", profiles[ci].name.c_str());
    for (int q = 0; q < production::CustomerWorkload::kQueriesPerCustomer;
         ++q) {
      std::vector<Row> out;
      auto col_exec = [&](const LogicalRef& p, std::vector<Row>* o) {
        return ro->ExecuteColumn(p, o);
      };
      auto row_exec = [&](const LogicalRef& p, std::vector<Row>* o) {
        return ro->ExecuteRow(p, o);
      };
      Timer tc;
      if (!workload.RunQuery(q, *cluster->catalog(), col_exec, &out).ok()) {
        return 1;
      }
      const double col_ms = tc.ElapsedMicros() / 1000.0;
      Timer tr;
      if (!workload.RunQuery(q, *cluster->catalog(), row_exec, &out).ok()) {
        return 1;
      }
      const double row_ms = tr.ElapsedMicros() / 1000.0;
      const double speedup = row_ms / std::max(col_ms, 1e-3);
      int b = speedup < 2 ? 0 : speedup < 5 ? 1 : speedup < 10 ? 2
              : speedup < 100 ? 3 : 4;
      dist[ci][b]++;
      report.Row()
          .Set("customer", static_cast<double>(ci + 1))
          .Set("query", q + 1)
          .Set("column_ms", col_ms)
          .Set("row_ms", row_ms)
          .Set("speedup", speedup);
      std::printf("  Q%d: column %.2fms, row %.2fms -> x%.1f\n", q + 1,
                  col_ms, row_ms, speedup);
    }
  }
  std::printf("\n# Table 3 | query distribution by speed-up bucket\n");
  std::printf("%-12s", "bucket");
  for (auto& p : profiles) std::printf(" %20s", p.name.substr(0, 5).c_str());
  std::printf("\n");
  for (int b = 0; b < 5; ++b) {
    std::printf("%-12s", buckets[b]);
    for (size_t ci = 0; ci < profiles.size(); ++ci) {
      std::printf(" %19d%%",
                  dist[ci][b] * 100 /
                      production::CustomerWorkload::kQueriesPerCustomer);
    }
    std::printf("\n");
  }
  std::printf("# paper: Cust3/Cust4 dominated by >x10 speedups; Cust1/2 "
              "mostly <x5 (selective queries)\n");
  report.Write();
  return 0;
}
