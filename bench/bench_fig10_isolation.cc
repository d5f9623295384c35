// Reproduces Figure 10: CH-benCHmark performance isolation. (a) saturate
// OLTP on the RW node, then grow analytical clients on the RO node — OLTP
// throughput must degrade <5%; (b) saturate OLAP, then grow OLTP clients —
// OLAP dips modestly (<20% in the paper) because the tables grow and invalid
// rows accumulate, not because of resource contention.
#include "bench/bench_util.h"

using namespace imci;
using namespace imci::bench;

namespace {

double RunApClients(Cluster* cluster, int clients, double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      int q = c % chbench::ChBench::kNumAnalytical;
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<Row> out;
        auto exec = [&](const LogicalRef& p, std::vector<Row>* o) {
          return cluster->proxy()->ExecuteQuery(p, o);
        };
        if (chbench::ChBench::RunAnalytical(q, *cluster->catalog(), exec,
                                            &out).ok()) {
          queries.fetch_add(1, std::memory_order_relaxed);
        }
        q = (q + 1) % chbench::ChBench::kNumAnalytical;
      }
    });
  }
  Timer t;
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<uint64_t>(seconds * 1e6)));
  stop.store(true);
  for (auto& w : workers) w.join();
  return queries.load() / t.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = Flag(argc, argv, "smoke", 0) != 0;
  const int warehouses =
      static_cast<int>(Flag(argc, argv, "wh", smoke ? 2 : 4));
  const double secs = Flag(argc, argv, "secs", smoke ? 0.3 : 1.5);
  const int tp_saturation =
      static_cast<int>(Flag(argc, argv, "tp", smoke ? 4 : 8));
  const std::vector<int> client_steps =
      smoke ? std::vector<int>{0, 2, 8} : std::vector<int>{0, 2, 4, 8, 16};
  chbench::ChBench bench(warehouses, /*items=*/500);
  auto cluster = MakeChBenchCluster(&bench);
  if (!cluster) return 1;
  auto* txns = cluster->rw()->txn_manager();

  std::printf("# Figure 10a | OLTP isolation: %d TP threads saturated, AP "
              "clients grow\n", tp_saturation);
  std::printf("%-12s %14s %14s %10s\n", "ap_clients", "tp_tps", "ap_qps",
              "tp_loss");
  BenchReport report("fig10_isolation");
  report.Label("workload", "chbench");
  report.Metric("tp_saturation_threads", tp_saturation);
  report.Metric("smoke", smoke ? 1 : 0);
  double tp_base = 0;
  for (int ap : client_steps) {
    std::atomic<bool> stop{false};
    std::thread ap_driver;
    std::atomic<uint64_t> ap_queries{0};
    std::vector<std::thread> ap_threads;
    for (int c = 0; c < ap; ++c) {
      ap_threads.emplace_back([&, c] {
        int q = c % chbench::ChBench::kNumAnalytical;
        while (!stop.load(std::memory_order_relaxed)) {
          std::vector<Row> out;
          auto exec = [&](const LogicalRef& p, std::vector<Row>* o) {
            return cluster->proxy()->ExecuteQuery(p, o);
          };
          if (chbench::ChBench::RunAnalytical(q, *cluster->catalog(), exec,
                                              &out).ok()) {
            ap_queries.fetch_add(1);
          }
          q = (q + 1) % chbench::ChBench::kNumAnalytical;
        }
      });
    }
    Timer t;
    double tp_tps = DriveOltp(tp_saturation, secs, [&](int w) {
      thread_local Rng rng(1234 + w);
      (void)bench.RunTransaction(txns, &rng);
    });
    stop.store(true);
    for (auto& th : ap_threads) th.join();
    const double ap_qps = ap_queries.load() / t.ElapsedSeconds();
    if (ap == 0) tp_base = tp_tps;
    report.Row()
        .Set("ap_clients", ap)
        .Set("tp_tps", tp_tps)
        .Set("ap_qps", ap_qps)
        .Set("tp_loss_pct", 100.0 * (tp_base - tp_tps) / tp_base);
    std::printf("%-12d %14.0f %14.1f %9.1f%%\n", ap, tp_tps, ap_qps,
                100.0 * (tp_base - tp_tps) / tp_base);
  }
  std::printf("# paper: OLTP loss < 5%% as AP clients grow (Fig 10a)\n\n");

  std::printf("# Figure 10b | OLAP isolation: AP saturated, TP clients grow\n");
  std::printf("%-12s %14s %14s %10s\n", "tp_clients", "ap_qps", "tp_tps",
              "ap_loss");
  const int ap_sat = smoke ? 4 : 8;
  double ap_base = 0;
  for (int tp : client_steps) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> tp_threads;
    std::atomic<uint64_t> tp_ops{0};
    for (int w = 0; w < tp; ++w) {
      tp_threads.emplace_back([&, w] {
        Rng rng(99 + w);
        while (!stop.load(std::memory_order_relaxed)) {
          (void)bench.RunTransaction(txns, &rng);
          tp_ops.fetch_add(1);
        }
      });
    }
    Timer t;
    double ap_qps = RunApClients(cluster.get(), ap_sat, secs);
    stop.store(true);
    for (auto& th : tp_threads) th.join();
    if (tp == 0) ap_base = ap_qps;
    report.Row()
        .Set("tp_clients", tp)
        .Set("ap_qps", ap_qps)
        .Set("tp_tps", tp_ops.load() / t.ElapsedSeconds())
        .Set("ap_loss_pct",
             100.0 * (ap_base - ap_qps) / std::max(ap_base, 1e-9));
    std::printf("%-12d %14.1f %14.0f %9.1f%%\n", tp, ap_qps,
                tp_ops.load() / t.ElapsedSeconds(),
                100.0 * (ap_base - ap_qps) / std::max(ap_base, 1e-9));
  }
  std::printf("# paper: OLAP loss < 20%% as TP clients grow (Fig 10b)\n\n");

  // Figure 10c | RW snapshot reads: the MVCC arm layered onto the paper's
  // isolation story. OLTP stays saturated on the RW node while *snapshot
  // readers grow on the RW node itself* — point gets plus 300-row range
  // scans through the row engine at a pinned read view. Readers take no row
  // locks and never hold the table latch across a scan (per-step latching),
  // so writer commits/s must stay flat within noise as readers grow.
  // Readers pace themselves with a 1 ms think time: the claim under test is
  // "readers don't *block* writers"; unpaced spin-readers on a small CI box
  // would only measure CPU fair-share, drowning the latching signal.
  const int rw_tp = smoke ? 4 : 16;
  const std::vector<int> reader_steps =
      smoke ? std::vector<int>{0, 2, 8} : std::vector<int>{0, 2, 4, 8, 16};
  std::printf("# Figure 10c | RW snapshot reads: %d TP threads saturated, "
              "RW snapshot readers grow\n", rw_tp);
  std::printf("%-12s %14s %14s %14s %10s\n", "rw_readers", "tp_commit_s",
              "tp_tps", "read_qps", "tp_loss");
  double rw_base_cps = 0;
  auto run_rw_read_step = [&](int readers) {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> reads{0};
    std::vector<std::thread> rthreads;
    for (int c = 0; c < readers; ++c) {
      rthreads.emplace_back([&, c] {
        Rng rng(5000 + c);
        while (!stop.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          const int w = 1 + static_cast<int>(rng.Next() % warehouses);
          if (rng.Next() % 2 == 0) {
            const int d = 1 + static_cast<int>(rng.Next() % 10);
            const int cu = 1 + static_cast<int>(rng.Next() % 300);
            Row row;
            if (txns->Get(chbench::kCustomer,
                          chbench::ChBench::CustomerPk(w, d, cu), &row).ok()) {
              reads.fetch_add(1, std::memory_order_relaxed);
            }
          } else {
            ReadView view = txns->OpenReadView();
            uint64_t n = 0;
            if (txns->ScanRange(view, chbench::kStock,
                                chbench::ChBench::StockPk(w, 0),
                                chbench::ChBench::StockPk(w, 99),
                                [&](int64_t, const Row&) {
                                  ++n;
                                  return true;
                                }).ok() && n > 0) {
              reads.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    const uint64_t commits_before = txns->commits();
    Timer t;
    const double tp_tps = DriveOltp(rw_tp, secs, [&](int w) {
      thread_local Rng rng(777 + w);
      (void)bench.RunTransaction(txns, &rng);
    });
    const double elapsed = t.ElapsedSeconds();
    stop.store(true);
    for (auto& th : rthreads) th.join();
    const double commit_s = (txns->commits() - commits_before) / elapsed;
    const double read_qps = reads.load() / elapsed;
    if (readers == 0) rw_base_cps = commit_s;
    const double loss =
        100.0 * (rw_base_cps - commit_s) / std::max(rw_base_cps, 1e-9);
    report.Row()
        .Set("rw_readers", readers)
        .Set("tp_commits_per_s", commit_s)
        .Set("tp_tps", tp_tps)
        .Set("rw_read_qps", read_qps)
        .Set("tp_loss_pct", loss);
    std::printf("%-12d %14.0f %14.0f %14.1f %9.1f%%\n", readers, commit_s,
                tp_tps, read_qps, loss);
  };
  for (int readers : reader_steps) run_rw_read_step(readers);
  std::printf("# MVCC claim: writer commits/s flat within noise as RW "
              "snapshot readers grow (Fig 10c)\n");
  // Substrate accounting after the whole 10c run: how much version history
  // the arm left behind and what the arena reclaimed along the way.
  const MvccStats mvcc = cluster->rw()->engine()->MvccStatsSnapshot();
  std::printf("# mvcc: %llu chains (max len %llu), %llu live versions, "
              "%.1f MiB arena, %llu epochs dropped, %llu relocations\n",
              static_cast<unsigned long long>(mvcc.chains),
              static_cast<unsigned long long>(mvcc.max_chain_length),
              static_cast<unsigned long long>(mvcc.versions),
              mvcc.arena_bytes_live / (1024.0 * 1024.0),
              static_cast<unsigned long long>(mvcc.epochs_dropped),
              static_cast<unsigned long long>(mvcc.relocations));
  report.Metric("mvcc_chains", static_cast<double>(mvcc.chains));
  report.Metric("mvcc_max_chain_length",
                static_cast<double>(mvcc.max_chain_length));
  report.Metric("mvcc_live_versions", static_cast<double>(mvcc.versions));
  report.Metric("mvcc_versions_installed",
                static_cast<double>(mvcc.versions_installed));
  report.Metric("mvcc_arena_bytes_live",
                static_cast<double>(mvcc.arena_bytes_live));
  report.Metric("mvcc_epochs_dropped",
                static_cast<double>(mvcc.epochs_dropped));
  report.Write();
  return 0;
}
