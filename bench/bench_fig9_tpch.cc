// Reproduces Figure 9: TPC-H query latency for PolarDB-IMCI's column engine,
// row-based PolarDB, and a ClickHouse stand-in (the same columnar engine in a
// pure-OLAP configuration without Pack min/max pruning; ClickHouse itself is
// a separate server that this single-process build does not include). Paper
// shape to verify: column engine beats the row engine by 1-2 orders of
// magnitude on scan-heavy queries (gmean x5.56 at 100G), loses on the highly
// selective Q2, and tracks the ClickHouse stand-in.
#include <thread>

#include "bench/bench_util.h"
#include "tests/test_util.h"
#include "workloads/tpch_internal.h"

using namespace imci;
using namespace imci::bench;

int main(int argc, char** argv) {
  const bool smoke = Flag(argc, argv, "smoke", 0) != 0;
  const double sf = Flag(argc, argv, "sf", smoke ? 0.01 : 0.05);
  const int parallelism =
      static_cast<int>(Flag(argc, argv, "threads", smoke ? 2 : 8));
  std::printf("# Figure 9 | TPC-H SF=%.3f | %d-way intra-query parallelism"
              "%s\n",
              sf, parallelism, smoke ? " | smoke" : "");
  ClusterOptions opts;
  // The cores sweep below re-runs the suite at DOP up to 4 even when the
  // headline arm was asked for less, so the pool must hold 4 workers.
  opts.ro.exec_threads = std::max(parallelism, 4);
  opts.ro.default_parallelism = parallelism;
  // RO-sweep arm: cut fragments aggressively enough that the big scans fan
  // out even at smoke scale, and run each fragment serially on its node —
  // the sweep isolates *inter-node* scaling (the intra-node story is the
  // cores sweep above).
  opts.coordinator.min_rows_touched = 0;
  opts.coordinator.rows_per_fragment = 15000.0;
  opts.coordinator.fragment_dop = 1;
  auto cluster = MakeTpchCluster(sf, 1, opts);
  if (!cluster) {
    std::printf("cluster setup failed\n");
    return 1;
  }
  RoNode* ro = cluster->ro(0);
  (void)ro->CatchUpNow();
  ro->RefreshStats();

  struct EngineCfg {
    const char* name;
    bool pruning;
    bool row_engine;
  };
  const EngineCfg engines[] = {
      {"PolarDB-IMCI", true, false},
      {"ClickHouse-sim", false, false},
      {"Row-PolarDB", false, true},
  };
  std::printf("%-4s %14s %16s %14s %10s\n", "Q", "IMCI(ms)", "CHsim(ms)",
              "Row(ms)", "Row/IMCI");
  BenchReport report("fig9_tpch");
  report.Metric("sf", sf);
  report.Metric("threads", parallelism);
  report.Metric("smoke", smoke ? 1 : 0);
  std::vector<double> imci_ms, ch_ms, row_ms;
  for (int q = 1; q <= 22; ++q) {
    {
      // Warm-up pass (uncounted): touches the packs so no engine pays the
      // cold-cache cost of going first.
      auto warm = [&](const LogicalRef& plan, std::vector<Row>* out) {
        return ro->ExecuteColumn(plan, out, parallelism);
      };
      std::vector<Row> out;
      (void)tpch::RunQuery(q, *cluster->catalog(), warm, &out);
    }
    double times[3] = {0, 0, 0};
    int imci_dop_used = 0;  // grant actually issued to the IMCI arm
    for (int e = 0; e < 3; ++e) {
      const EngineCfg& cfg = engines[e];
      auto exec = [&](const LogicalRef& plan, std::vector<Row>* out) {
        if (cfg.row_engine) return ro->ExecuteRow(plan, out);
        if (cfg.pruning) {
          return ro->ExecuteColumn(plan, out, parallelism, &imci_dop_used);
        }
        // ClickHouse stand-in: same vectorized engine, no zone-map pruning.
        PhysOpRef root;
        IMCI_RETURN_NOT_OK(LowerToColumnPlan(plan, ro->imci(), &root));
        ExecContext ctx;
        ctx.pool = ro->exec_pool();
        ctx.parallelism = parallelism;
        ctx.read_vid = ro->applied_vid();
        ctx.pruning_enabled = false;
        return RunPlan(root, &ctx, out);
      };
      std::vector<Row> out;
      Timer t;
      Status s = tpch::RunQuery(q, *cluster->catalog(), exec, &out);
      times[e] = t.ElapsedMicros() / 1000.0;
      if (!s.ok()) {
        std::printf("Q%d failed on %s: %s\n", q, cfg.name,
                    s.ToString().c_str());
        return 1;
      }
    }
    imci_ms.push_back(times[0]);
    ch_ms.push_back(times[1]);
    row_ms.push_back(times[2]);
    report.Row()
        .Set("query", q)
        .Set("imci_ms", times[0])
        .Set("chsim_ms", times[1])
        .Set("row_ms", times[2])
        .Set("imci_dop_used", imci_dop_used)
        .Set("speedup_row_over_imci", times[2] / std::max(times[0], 1e-3));
    std::printf("Q%-3d %14.2f %16.2f %14.2f %9.1fx\n", q, times[0], times[1],
                times[2], times[2] / std::max(times[0], 1e-3));
  }
  const double g_imci = GeoMean(imci_ms), g_ch = GeoMean(ch_ms),
               g_row = GeoMean(row_ms);
  std::printf("Gmean %13.2f %16.2f %14.2f %9.1fx\n", g_imci, g_ch, g_row,
              g_row / g_imci);
  std::printf("# paper: IMCI/row speedup x5.56 (gmean, 100G), up to x149 on "
              "scan-heavy queries; IMCI ~= ClickHouse (x1.32)\n");
  std::printf("# measured: IMCI/row gmean x%.2f, max x%.1f, IMCI/CHsim "
              "x%.2f\n",
              g_row / g_imci,
              [&] {
                double mx = 0;
                for (size_t i = 0; i < imci_ms.size(); ++i) {
                  mx = std::max(mx, row_ms[i] / std::max(imci_ms[i], 1e-3));
                }
                return mx;
              }(),
              g_ch / g_imci);
  report.Metric("gmean_imci_ms", g_imci);
  report.Metric("gmean_chsim_ms", g_ch);
  report.Metric("gmean_row_ms", g_row);
  report.Metric("gmean_speedup_row_over_imci", g_row / g_imci);

  // --- Cores sweep: morsel-executor scaling + equivalence gate -----------
  // Re-runs the 22-query suite at DOP 1, 2, 4 on the same node. Every run
  // is checked for result equivalence against the DOP=1 reference (the
  // executor's contract: parallelism must never change an answer), and the
  // non-smoke run gates on >= 2x total-suite speedup at 4 workers. The
  // speedup gate needs hardware: on a machine with fewer than 4 cores it is
  // measured and reported but not enforced (a 1-core box cannot physically
  // run 4 workers faster than 1).
  const unsigned hw_cores = std::thread::hardware_concurrency();
  const int sweep_dops[] = {1, 2, 4};
  double sweep_total_ms[3] = {0, 0, 0};
  bool equivalent = true;
  std::printf("# cores sweep (%u hardware cores)\n", hw_cores);
  for (int q = 1; q <= 22; ++q) {
    std::vector<std::string> reference;
    for (int di = 0; di < 3; ++di) {
      const int dop = sweep_dops[di];
      auto exec = [&](const LogicalRef& plan, std::vector<Row>* out) {
        return ro->ExecuteColumn(plan, out, dop);
      };
      std::vector<Row> out;
      Timer t;
      Status s = tpch::RunQuery(q, *cluster->catalog(), exec, &out);
      sweep_total_ms[di] += t.ElapsedMicros() / 1000.0;
      if (!s.ok()) {
        std::printf("sweep Q%d failed at dop=%d: %s\n", q, dop,
                    s.ToString().c_str());
        return 1;
      }
      std::vector<std::string> canon = testing_util::Canonicalize(out);
      if (di == 0) {
        reference = std::move(canon);
      } else if (canon != reference) {
        std::printf("sweep Q%d NOT EQUIVALENT at dop=%d (%zu rows vs %zu)\n",
                    q, dop, canon.size(), reference.size());
        equivalent = false;
      }
    }
  }
  const double speedup2 = sweep_total_ms[0] / std::max(sweep_total_ms[1], 1e-3);
  const double speedup4 = sweep_total_ms[0] / std::max(sweep_total_ms[2], 1e-3);
  std::printf("# sweep totals: dop1 %.1fms, dop2 %.1fms (x%.2f), dop4 %.1fms "
              "(x%.2f) | stolen tasks %llu | equivalence %s\n",
              sweep_total_ms[0], sweep_total_ms[1], speedup2,
              sweep_total_ms[2], speedup4,
              static_cast<unsigned long long>(ro->exec_pool()->tasks_stolen()),
              equivalent ? "OK" : "FAILED");
  report.Metric("sweep_dop1_ms", sweep_total_ms[0]);
  report.Metric("sweep_dop2_ms", sweep_total_ms[1]);
  report.Metric("sweep_dop4_ms", sweep_total_ms[2]);
  report.Metric("sweep_speedup_2w", speedup2);
  report.Metric("sweep_speedup_4w", speedup4);
  report.Metric("sweep_equivalent", equivalent ? 1 : 0);
  report.Metric("hardware_cores", hw_cores);
  report.Metric("tasks_stolen",
                static_cast<double>(ro->exec_pool()->tasks_stolen()));
  report.Metric("queries_throttled",
                static_cast<double>(ro->query_tokens()->queries_throttled()));

  // --- RO sweep: distributed fragment coordinator (1 -> 2 -> 3 ROs) ------
  // Grows the fleet to three nodes and re-runs the suite through the
  // fragment coordinator at 2 and 3 participants, against the single-RO
  // serial reference. Correctness gate (always on): every coordinator
  // answer equals the reference. Speedup gate (release runs on >= 4-core
  // hosts, like the cores sweep): the queries that genuinely distribute
  // must finish >= 1.6x faster at 3 ROs than single-node serial.
  for (int i = 0; i < 2; ++i) {
    RoNode* added = nullptr;
    if (!cluster->AddRoNode(&added).ok()) {
      std::printf("RO scale-out failed\n");
      return 1;
    }
  }
  for (RoNode* node : cluster->ro_nodes()) {
    (void)node->CatchUpNow();
    node->RefreshStats();
  }
  QueryCoordinator* coord = cluster->coordinator();
  double ro_total_ms[3] = {0, 0, 0};  // ref / 2 ROs / 3 ROs, dist'd queries
  bool dist_equivalent = true;
  int distributed_queries = 0;
  std::printf("# RO sweep (%zu nodes)\n", cluster->ro_nodes().size());
  for (int q = 1; q <= 22; ++q) {
    auto ref_exec = [&](const LogicalRef& plan, std::vector<Row>* out) {
      return ro->ExecuteColumn(plan, out, 1);
    };
    std::vector<Row> ref_out;
    Timer ref_t;
    if (!tpch::RunQuery(q, *cluster->catalog(), ref_exec, &ref_out).ok()) {
      std::printf("RO sweep Q%d reference failed\n", q);
      return 1;
    }
    const double ref_ms = ref_t.ElapsedMicros() / 1000.0;
    const auto reference = testing_util::Canonicalize(ref_out);
    double arm_ms[2] = {0, 0};
    bool arm_distributed[2] = {false, false};
    DistQueryStats frag_stats;  // the 3-RO arm's top-level query
    for (int ki = 0; ki < 2; ++ki) {
      const int ros = ki + 2;
      coord->set_max_participants(ros);
      bool top_attempted = false;
      DistQueryStats top_stats;
      auto dist_exec = [&](const LogicalRef& plan, std::vector<Row>* out) {
        bool attempted = false;
        DistQueryStats stats;
        Status s = coord->Execute(plan, 0, out, &attempted, &stats);
        // RunQuery calls this for scalar subqueries too; the top-level
        // query is always the last call, so these capture its outcome.
        top_attempted = attempted;
        if (attempted) {
          top_stats = std::move(stats);
          return s;
        }
        return ro->ExecuteColumn(plan, out, 1);
      };
      std::vector<Row> out;
      Timer t;
      if (!tpch::RunQuery(q, *cluster->catalog(), dist_exec, &out).ok()) {
        std::printf("RO sweep Q%d failed at %d ROs\n", q, ros);
        return 1;
      }
      arm_ms[ki] = t.ElapsedMicros() / 1000.0;
      arm_distributed[ki] = top_attempted;
      if (ros == 3) frag_stats = std::move(top_stats);
      if (testing_util::Canonicalize(out) != reference) {
        std::printf("RO sweep Q%d NOT EQUIVALENT at %d ROs\n", q, ros);
        dist_equivalent = false;
      }
    }
    report.Row()
        .Set("query", q)
        .Set("ro_ref_ms", ref_ms)
        .Set("ro2_ms", arm_ms[0])
        .Set("ro3_ms", arm_ms[1])
        .Set("ro3_distributed", arm_distributed[1] ? 1 : 0);
    if (arm_distributed[1]) {
      // Speedup accounting covers only queries the coordinator accepted at
      // full fan-out — fallback runs measure nothing but dispatch overhead.
      ++distributed_queries;
      ro_total_ms[0] += ref_ms;
      ro_total_ms[1] += arm_ms[0];
      ro_total_ms[2] += arm_ms[1];
      for (size_t fi = 0; fi < frag_stats.timings.size(); ++fi) {
        const auto& ft = frag_stats.timings[fi];
        report.Row()
            .Set("query", q)
            .Set("fragment", static_cast<double>(fi))
            .Set("frag_wait_ms", ft.wait_us / 1000.0)
            .Set("frag_exec_ms", ft.exec_us / 1000.0)
            .Set("frag_rows", static_cast<double>(ft.rows))
            .Set("frag_attempts", ft.attempts);
      }
    }
  }
  const double dist_speedup2 =
      ro_total_ms[0] / std::max(ro_total_ms[1], 1e-3);
  const double dist_speedup3 =
      ro_total_ms[0] / std::max(ro_total_ms[2], 1e-3);
  std::printf("# RO sweep totals (%d distributed queries): 1 RO %.1fms, "
              "2 ROs %.1fms (x%.2f), 3 ROs %.1fms (x%.2f) | retries %llu | "
              "stragglers %llu | equivalence %s\n",
              distributed_queries, ro_total_ms[0], ro_total_ms[1],
              dist_speedup2, ro_total_ms[2], dist_speedup3,
              static_cast<unsigned long long>(coord->retries()),
              static_cast<unsigned long long>(coord->stragglers()),
              dist_equivalent ? "OK" : "FAILED");
  report.Metric("ro_sweep_distributed_queries", distributed_queries);
  report.Metric("ro_sweep_1ro_ms", ro_total_ms[0]);
  report.Metric("ro_sweep_2ro_ms", ro_total_ms[1]);
  report.Metric("ro_sweep_3ro_ms", ro_total_ms[2]);
  report.Metric("ro_sweep_speedup_2ro", dist_speedup2);
  report.Metric("ro_sweep_speedup_3ro", dist_speedup3);
  report.Metric("ro_sweep_equivalent", dist_equivalent ? 1 : 0);
  report.Metric("dist_retries", static_cast<double>(coord->retries()));
  report.Metric("dist_stragglers", static_cast<double>(coord->stragglers()));
  report.Metric("dist_fallbacks", static_cast<double>(coord->fallbacks()));
  report.Write();
  if (!equivalent) {
    std::printf("FAILED: parallel results diverge from dop=1\n");
    return 1;
  }
  if (!dist_equivalent) {
    std::printf("FAILED: distributed results diverge from single-RO\n");
    return 1;
  }
  const bool enforce_speedup = !smoke && hw_cores >= 4;
  if (enforce_speedup && speedup4 < 2.0) {
    std::printf("FAILED: dop=4 speedup x%.2f < x2.0 over dop=1 "
                "(%u cores available)\n",
                speedup4, hw_cores);
    return 1;
  }
  if (enforce_speedup && distributed_queries >= 3 && dist_speedup3 < 1.6) {
    std::printf("FAILED: 3-RO speedup x%.2f < x1.6 over single-RO "
                "(%d distributed queries, %u cores)\n",
                dist_speedup3, distributed_queries, hw_cores);
    return 1;
  }
  if (!enforce_speedup) {
    std::printf("# speedup gates not enforced (%s)\n",
                smoke ? "smoke run" : "fewer than 4 hardware cores");
  }
  return 0;
}
