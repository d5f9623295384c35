// htapbench: one process runs one HTAP workload against an in-process
// PolarDB-IMCI cluster and prints one JSON report line on stdout.
//
//   htapbench --workload tpch_olap|tpch_fanout|oltp_commit
//             --seed N --seconds S --trace 0|1
//
// Workloads (why each exists):
//  - tpch_olap: TPC-H SF 0.05, one RO, no writes; one client runs Q1-Q22
//    pass after pass through Proxy::ExecuteQuery (eventual). exec, imci,
//    plan and routing do the work; log and replication sit idle.
//  - tpch_fanout: tpch_olap with two ROs, so the default-option query
//    coordinator fans eligible queries out (plan/fragment, exec/serde,
//    exec/merge). In tpch_olap the coordinator declines every query.
//  - oltp_commit: CH-benCH (16 warehouses, 1000 items each) plus one RO
//    replicating redo; three closed-loop clients run NewOrder/Payment/
//    Delivery 48/43/9 and no queries. rowstore, log/polarfs and replication
//    do the work; exec is idle.
//
// Untraced runs (--trace 0) report end-to-end metrics. A traced run
// (--trace 1) first repeats an untraced window, then a traced one, and
// reports per-layer metrics timed around calls into each module's public
// functions, plus trace.overhead (traced / untraced headline latency).
// Every answer is checked; "correct" is false on any wrong answer.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <sys/prctl.h>
#include <sys/resource.h>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "workloads/chbench.h"
#include "workloads/tpch.h"

using namespace imci;

namespace {

// --- Fixed workload parameters --------------------------------------------

constexpr double kTpchScale = 0.05;
constexpr int kWarehouses = 16;
constexpr int kItemsPerWarehouse = 1000;
constexpr int kCustomersPerDistrict = 300;  // ChBench's fixed value
constexpr uint32_t kFsyncLatencyUs = 100;
constexpr int kOltpClients = 3;
/// Untimed warm-up of the transaction workloads, before the window.
constexpr double kTxnWarmupS = 1.0;
/// Retries of a transaction whose attempt hit a lock-wait timeout.
constexpr int kMaxRetries = 10;
/// The visibility watcher's polling period (its time resolution).
constexpr uint64_t kWatchPollUs = 20;
/// Bound on waiting for the RO to show every committed transaction.
constexpr double kDrainTimeoutS = 30.0;

double MsSince(uint64_t t0_ns) { return (NowNanos() - t0_ns) / 1e6; }

/// Benchmark threads that wait on a clock sleep instead of spinning, so they
/// do not take a core from the system under test; a 1 ns timer slack makes
/// their short sleeps end on time instead of up to 50 us late.
void UsePreciseSleeps() { (void)prctl(PR_SET_TIMERSLACK, 1UL); }

// --- Sample statistics -----------------------------------------------------

class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  void Append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  size_t n() const { return v_.size(); }

  /// Nearest-rank quantile; 0 when empty.
  double Quantile(double q) const {
    if (v_.empty()) return 0;
    std::vector<double> s = v_;
    const size_t k = std::min(
        s.size() - 1,
        static_cast<size_t>(std::ceil(q * static_cast<double>(s.size()))) -
            (q > 0 ? 1 : 0));
    std::nth_element(s.begin(), s.begin() + k, s.end());
    return s[k];
  }
  double Median() const { return Quantile(0.5); }
  double Mean() const {
    return v_.empty() ? 0
                      : std::accumulate(v_.begin(), v_.end(), 0.0) / v_.size();
  }
  /// The highest of p99.9/p99/p95/p90/p50 with at least ten samples beyond
  /// it (p50 when the sample is smaller).
  double TailQ() const {
    for (double q : {0.999, 0.99, 0.95, 0.9}) {
      if (static_cast<double>(v_.size()) * (1 - q) >= 10) return q;
    }
    return 0.5;
  }

 private:
  std::vector<double> v_;
};

double GeoMean(const std::vector<double>& xs) {
  double acc = 0;
  for (double x : xs) acc += std::log(std::max(x, 1e-9));
  return xs.empty() ? 0 : std::exp(acc / xs.size());
}

double PeakRssMb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss / 1024.0;  // Linux reports kilobytes
}

const char* Sanitizer() {
#if defined(__SANITIZE_THREAD__)
  return "tsan";
#elif defined(__SANITIZE_ADDRESS__)
  return "asan";
#else
  return "none";
#endif
}

// --- Report ----------------------------------------------------------------

/// Collects metrics and run facts, and renders them as one JSON object.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit, 0, 0});
  }
  /// A statistic of a sample: also records the sample count and quantile.
  void Timing(const std::string& name, double value, const std::string& unit,
              size_t n, double q) {
    metrics_.push_back({name, value, unit, n, q});
  }
  void Info(const std::string& key, const std::string& value) {
    info_.emplace_back(key, "\"" + value + "\"");
  }
  void Info(const std::string& key, double value) {
    info_.emplace_back(key, Num(value));
  }

  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const {
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"info\": {";
    for (size_t i = 0; i < info_.size(); ++i) {
      s += (i ? ", \"" : "\"") + info_[i].first + "\": " + info_[i].second;
    }
    s += "}, \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Entry& m = metrics_[i];
      s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + Num(m.value) +
           ", \"unit\": \"" + m.unit + "\"";
      if (m.n > 0) {
        s += ", \"n\": " + std::to_string(m.n) + ", \"q\": " + Num(m.q);
      }
      s += "}";
    }
    return s + "}}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    size_t n;
    double q;
  };
  static std::string Num(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
  }
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
};

/// Median and tail of `s` as `<prefix>_p50_ms` / `<prefix>_p99_ms`; the tail
/// is p99, or the highest quantile a smaller sample supports (see TailQ).
void ReportTimings(Report* r, const std::string& prefix, const Samples& s) {
  const double q = std::min(0.99, s.TailQ());
  r->Timing(prefix + "_p50_ms", s.Median(), "ms", s.n(), 0.5);
  r->Timing(prefix + "_p99_ms", s.Quantile(q), "ms", s.n(), q);
}

// --- Answer checking -------------------------------------------------------

/// Total order on values in which doubles within a relative 1e-9 compare
/// equal: the engines sum in different orders, so the last bits differ.
int CompareValue(const Value& a, const Value& b) {
  if (a.index() != b.index()) return a.index() < b.index() ? -1 : 1;
  if (std::holds_alternative<double>(a)) {
    const double x = std::get<double>(a), y = std::get<double>(b);
    const double tol = 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
    if (std::fabs(x - y) <= tol) return 0;
    return x < y ? -1 : 1;
  }
  if (a < b) return -1;
  return b < a ? 1 : 0;
}

int CompareRow(const Row& a, const Row& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = 0; i < a.size(); ++i) {
    if (int c = CompareValue(a[i], b[i])) return c;
  }
  return 0;
}

/// Row-order-insensitive equality of two result sets.
bool SameAnswer(std::vector<Row> got, std::vector<Row> want) {
  if (got.size() != want.size()) return false;
  auto less = [](const Row& a, const Row& b) { return CompareRow(a, b) < 0; };
  std::sort(got.begin(), got.end(), less);
  std::sort(want.begin(), want.end(), less);
  for (size_t i = 0; i < got.size(); ++i) {
    if (CompareRow(got[i], want[i]) != 0) return false;
  }
  return true;
}

/// Every CH-benCH column index on `ro` equals the RW row store (the check
/// bench_fig11 runs): full column scans against full row-store scans.
bool ColumnIndexesMatchRowStore(Cluster* cluster, RoNode* ro,
                                const chbench::ChBench& ch) {
  if (!ro->CatchUpNow().ok()) return false;
  for (const auto& schema : ch.Schemas()) {
    const TableId table = schema->table_id();
    std::vector<Row> truth;
    Status s = cluster->rw()->engine()->GetTable(table)->Scan(
        [&](int64_t, const Row& row) {
          truth.push_back(row);
          return true;
        });
    if (!s.ok()) return false;
    std::vector<int> cols(schema->num_columns());
    std::iota(cols.begin(), cols.end(), 0);
    std::vector<Row> applied;
    if (!ro->ExecuteColumn(LScan(table, std::move(cols)), &applied).ok()) {
      return false;
    }
    if (!SameAnswer(applied, truth)) {
      std::fprintf(stderr, "column index of table %s diverged (%zu vs %zu)\n",
                   schema->name().c_str(), applied.size(), truth.size());
      return false;
    }
  }
  return true;
}

// --- Setup -----------------------------------------------------------------

ClusterOptions BenchOptions(int ros) {
  ClusterOptions opts;
  opts.fs.fsync_latency_us = kFsyncLatencyUs;
  opts.initial_ro_nodes = ros;
  return opts;
}

/// Generate + load + Open + RO catch-up; nullptr on any failure.
std::unique_ptr<Cluster> OpenTpch(uint64_t seed, int ros) {
  auto cluster = std::make_unique<Cluster>(BenchOptions(ros));
  tpch::TpchGen gen(kTpchScale, seed);
  for (auto& schema : gen.Schemas()) {
    if (!cluster->CreateTable(schema).ok()) return nullptr;
  }
  for (auto t : {tpch::kRegion, tpch::kNation, tpch::kSupplier, tpch::kPart,
                 tpch::kPartsupp, tpch::kCustomer, tpch::kOrders,
                 tpch::kLineitem}) {
    if (!cluster->BulkLoad(t, gen.Generate(t)).ok()) return nullptr;
  }
  if (!cluster->Open().ok()) return nullptr;
  for (RoNode* ro : cluster->ro_nodes()) {
    if (!ro->CatchUpNow().ok()) return nullptr;
  }
  return cluster;
}

std::unique_ptr<Cluster> OpenChBench(chbench::ChBench& ch) {
  auto cluster = std::make_unique<Cluster>(BenchOptions(1));
  for (auto& schema : ch.Schemas()) {
    if (!cluster->CreateTable(schema).ok()) return nullptr;
  }
  for (auto t : {chbench::kItem, chbench::kWarehouse, chbench::kDistrict,
                 chbench::kCustomer, chbench::kStock, chbench::kOrder,
                 chbench::kOrderLine, chbench::kNewOrder}) {
    if (!cluster->BulkLoad(t, ch.Generate(t)).ok()) return nullptr;
  }
  if (!cluster->Open().ok()) return nullptr;
  if (!cluster->ro(0)->CatchUpNow().ok()) return nullptr;
  return cluster;
}

/// Times one set-up; nullptr when it fails.
std::unique_ptr<Cluster> TimedOpen(
    const std::function<std::unique_ptr<Cluster>()>& open, Samples* secs) {
  const uint64_t t0 = NowNanos();
  auto c = open();
  if (c) secs->Add(MsSince(t0) / 1e3);
  return c;
}

/// The remaining set-ups of a run, each torn down at once (after the run's
/// own cluster is gone, so peak RSS stays that of one cluster).
bool RepeatSetups(int k, const std::function<std::unique_ptr<Cluster>()>& open,
                  Samples* secs) {
  for (int i = 1; i < k; ++i) {
    if (!TimedOpen(open, secs)) return false;
  }
  return true;
}

/// Prints a progress line to stderr.
void Stage(const char* what, uint64_t t0_ns) {
  std::fprintf(stderr, "[htapbench] %-28s %8.2f s\n", what,
               MsSince(t0_ns) / 1e3);
}

// --- Layer counters sampled around a window --------------------------------

/// Lifetime counters of the layers below the proxy, summed over the fleet.
struct Counters {
  uint64_t fsyncs = 0, batches = 0, batched = 0, log_bytes = 0;
  uint64_t stolen = 0, throttled = 0, rw_fallbacks = 0;
  uint64_t applied_ops = 0, compactions = 0, retries = 0;
  uint64_t coord_retries = 0, coord_stragglers = 0, coord_fallbacks = 0;

  static Counters Take(Cluster* c) {
    Counters k;
    PolarFs* fs = c->fs();
    k.fsyncs = fs->fsync_count();
    k.batches = fs->commit_batches();
    k.batched = fs->batched_commits();
    k.log_bytes = fs->log_bytes();
    k.rw_fallbacks = c->proxy()->rw_fallbacks();
    for (RoNode* ro : c->ro_nodes()) {
      k.stolen += ro->exec_pool()->tasks_stolen();
      k.throttled += ro->query_tokens()->queries_throttled();
      k.applied_ops += ro->pipeline()->applied_ops();
      k.compactions += ro->pipeline()->compactions();
      k.retries += ro->pipeline()->transient_retries();
    }
    QueryCoordinator* qc = c->coordinator();
    k.coord_retries = qc->retries();
    k.coord_stragglers = qc->stragglers();
    k.coord_fallbacks = qc->fallbacks();
    return k;
  }
};

// --- exec / plan / cluster / coordinator tracing ---------------------------

/// Per-layer figures of the query path, gathered by timing public calls:
/// every logical subtree of a plan runs through RoNode::ExecuteColumn at the
/// dop the whole plan was granted, and a node's exclusive time is its
/// inclusive time minus its children's (operators materialize between
/// pipelines, so this is faithful).
class QueryTracer {
 public:
  QueryTracer(Cluster* cluster, RoNode* ro) : cluster_(cluster), ro_(ro) {}

  /// Runs `plan` through the proxy (the answer the caller checks), then the
  /// traced probes. Returns the proxy call's status.
  Status Execute(const LogicalRef& plan, Consistency consistency,
                 std::vector<Row>* out, double* proxy_ms) {
    EngineChoice choice = EngineChoice::kRowEngine;
    uint64_t t0 = NowNanos();
    Status s = cluster_->proxy()->ExecuteQuery(plan, out, consistency, &choice);
    *proxy_ms = MsSince(t0);
    if (!s.ok()) return s;
    ++plans_;
    if (choice == EngineChoice::kColumnEngine) ++column_routed_;

    // Coordinator report for the same plan (eligibility + fragment timings).
    DistQueryStats ds;
    bool attempted = false;
    std::vector<Row> scratch;
    (void)cluster_->coordinator()->Execute(plan, 0, &scratch, &attempted, &ds);
    if (attempted) {
      ++distributed_;
      fragments_.Add(ds.fragments);
      merge_ms_.Add(ds.merge_us / 1e3);
      double mx = 0, sum = 0;
      for (const auto& f : ds.timings) {
        wait_ms_.Add(f.wait_us / 1e3);
        exec_ms_.Add(f.exec_us / 1e3);
        mx = std::max(mx, f.exec_us / 1e3);
        sum += f.exec_us / 1e3;
      }
      if (sum > 0) skew_.Add(mx / (sum / ds.timings.size()));
    }

    // Untraced root on the column engine: the coverage denominator, the
    // proxy-overhead subtrahend and the dop the subtrees reuse.
    int dop = 1;
    scratch.clear();
    t0 = NowNanos();
    IMCI_RETURN_NOT_OK(ro_->ExecuteColumn(plan, &scratch, 0, &dop));
    const double root_ms = MsSince(t0);
    untraced_ms_ += root_ms;
    proxy_overhead_.Add(*proxy_ms - root_ms);
    dop_.Add(dop);
    double inclusive = 0;
    return Walk(plan, dop, &inclusive);
  }

  void Report(::Report* r, double queries) const {
    const char* names[] = {"scan", "join", "agg", "sort", "other"};
    const double per_q = queries > 0 ? 1.0 / queries : 0;
    for (int i = 0; i < 5; ++i) {
      r->Metric(std::string("exec.") + names[i] + "_ms", ms_[i] * per_q, "ms");
    }
    for (int i = 0; i < 3; ++i) {
      r->Metric(std::string("exec.") + names[i] + "_rows", rows_[i] * per_q,
                "rows");
    }
    double traced = 0;
    for (double m : ms_) traced += m;
    r->Metric("exec.trace_coverage",
              untraced_ms_ > 0 ? traced / untraced_ms_ : 0, "ratio");
    r->Metric("plan.dop_used_mean", dop_.Mean(), "count");
    r->Metric("cluster.column_route_share",
              plans_ ? double(column_routed_) / plans_ : 0, "ratio");
    r->Metric("cluster.proxy_overhead_ms", proxy_overhead_.Mean(), "ms");
    r->Metric("coord.distributed_share",
              plans_ ? double(distributed_) / plans_ : 0, "ratio");
    r->Metric("coord.fragments_per_query", fragments_.Mean(), "count");
    r->Metric("coord.fragment_wait_ms", wait_ms_.Mean(), "ms");
    r->Metric("coord.fragment_exec_ms", exec_ms_.Mean(), "ms");
    r->Metric("coord.fragment_skew", skew_.Mean(), "ratio");
    r->Metric("coord.merge_ms", merge_ms_.Mean(), "ms");
  }

 private:
  static int Category(LogicalKind k) {
    switch (k) {
      case LogicalKind::kScan: return 0;
      case LogicalKind::kJoin: return 1;
      case LogicalKind::kAgg: return 2;
      case LogicalKind::kSort:
      case LogicalKind::kLimit: return 3;
      default: return 4;
    }
  }

  Status Walk(const LogicalRef& node, int dop, double* inclusive) {
    double children = 0;
    for (const auto& c : node->children) {
      double ci = 0;
      IMCI_RETURN_NOT_OK(Walk(c, dop, &ci));
      children += ci;
    }
    std::vector<Row> out;
    const uint64_t t0 = NowNanos();
    IMCI_RETURN_NOT_OK(ro_->ExecuteColumn(node, &out, dop));
    *inclusive = MsSince(t0);
    const int cat = Category(node->kind);
    ms_[cat] += *inclusive - children;
    if (cat < 3) rows_[cat] += static_cast<double>(out.size());
    return Status::OK();
  }

  Cluster* cluster_;
  RoNode* ro_;
  double ms_[5] = {};
  double rows_[3] = {};
  double untraced_ms_ = 0;
  uint64_t plans_ = 0, column_routed_ = 0, distributed_ = 0;
  Samples dop_, proxy_overhead_, fragments_, wait_ms_, exec_ms_, skew_,
      merge_ms_;
};

/// Metrics every workload reports after its window.
void ReportCommon(Report* r, Cluster* c, const Counters& k0,
                  const Counters& k1, double queries) {
  const double per_q = queries > 0 ? 1.0 / queries : 0;
  r->Metric("pool.tasks_stolen", (k1.stolen - k0.stolen) * per_q, "1/query");
  r->Metric("pool.queries_throttled", (k1.throttled - k0.throttled) * per_q,
            "1/query");
  r->Metric("cluster.rw_fallbacks", double(k1.rw_fallbacks - k0.rw_fallbacks),
            "count");
  r->Metric("coord.retries", double(k1.coord_retries - k0.coord_retries),
            "count");
  r->Metric("coord.stragglers",
            double(k1.coord_stragglers - k0.coord_stragglers), "count");
  r->Metric("coord.fallbacks", double(k1.coord_fallbacks - k0.coord_fallbacks),
            "count");
  RoNode* ro = c->ro(0);
  uint64_t groups = 0, rids = 0, visible = 0;
  for (ColumnIndex* idx : ro->imci()->All()) {
    groups += idx->num_groups();
    rids += idx->next_rid();
    visible += idx->visible_rows(ro->applied_vid());
  }
  r->Metric("imci.row_groups", double(groups), "count");
  r->Metric("imci.rows_per_visible_row",
            visible ? double(rids) / visible : 0, "ratio");
}

// --- TPC-H workloads -------------------------------------------------------

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// One timed window of Q1-Q22 passes. With a tracer, every plan also runs
/// the traced probes; the reported latency is always the proxy call time.
struct TpchWindow {
  std::vector<Samples> query_ms = std::vector<Samples>(23);
  Samples suite_s;
  uint64_t queries = 0;

  double GmeanMs() const {
    std::vector<double> med;
    for (int q = 1; q <= 22; ++q) {
      if (query_ms[q].n() > 0) med.push_back(query_ms[q].Median());
    }
    return GeoMean(med);
  }
};

void RunTpchWindow(Cluster* cluster, double seconds, bool at_least_one_pass,
                   const std::vector<std::vector<Row>>& reference,
                   QueryTracer* tracer, TpchWindow* w, Outcome* o) {
  const Catalog& cat = *cluster->catalog();
  const uint64_t start = NowNanos();
  while (MsSince(start) < seconds * 1e3 ||
         (at_least_one_pass && w->suite_s.n() == 0)) {
    const uint64_t pass0 = NowNanos();
    for (int q = 1; q <= 22; ++q) {
      double ms = 0;
      auto exec = [&](const LogicalRef& plan, std::vector<Row>* out) {
        if (tracer != nullptr) {
          double proxy_ms = 0;
          Status s = tracer->Execute(plan, Consistency::kEventual, out,
                                     &proxy_ms);
          ms += proxy_ms;
          return s;
        }
        return cluster->proxy()->ExecuteQuery(plan, out);
      };
      std::vector<Row> out;
      const uint64_t t0 = NowNanos();
      Status s = tpch::RunQuery(q, cat, exec, &out);
      if (tracer == nullptr) ms = MsSince(t0);
      ++o->attempted;
      ++w->queries;
      if (!s.ok()) {
        std::fprintf(stderr, "Q%d failed: %s\n", q, s.ToString().c_str());
        ++o->failed;
        o->correct = false;
        continue;
      }
      if (!SameAnswer(out, reference[q])) {
        std::fprintf(stderr, "Q%d: wrong answer (%zu rows, want %zu)\n", q,
                     out.size(), reference[q].size());
        ++o->failed;
        o->correct = false;
      }
      w->query_ms[q].Add(ms);
    }
    w->suite_s.Add(MsSince(pass0) / 1e3);
  }
}

int RunTpch(uint64_t seed, double seconds, bool trace, int setups,
            bool fanout, Report* r, Outcome* o) {
  const int ros = fanout ? 2 : 1;
  Samples setup_s;
  auto open = [&] { return OpenTpch(seed, ros); };
  uint64_t t0 = NowNanos();
  auto cluster = TimedOpen(open, &setup_s);
  if (!cluster) {
    std::fprintf(stderr, "set-up failed\n");
    return 1;
  }
  Stage("set-up", t0);
  r->Info("scale_factor", kTpchScale);
  r->Info("ro_nodes", ros);
  const Catalog& cat = *cluster->catalog();
  RoNode* ro = cluster->ro(0);

  // Reference answers from the row engine, once, before any timing.
  t0 = NowNanos();
  std::vector<std::vector<Row>> reference(23);
  for (int q = 1; q <= 22; ++q) {
    auto row_exec = [&](const LogicalRef& plan, std::vector<Row>* out) {
      return ro->ExecuteRow(plan, out);
    };
    if (!tpch::RunQuery(q, cat, row_exec, &reference[q]).ok()) {
      std::fprintf(stderr, "reference Q%d failed\n", q);
      return 1;
    }
    if (fanout) {
      // The fan-out answer must also equal the single-RO column answer.
      auto col_exec = [&](const LogicalRef& plan, std::vector<Row>* out) {
        return ro->ExecuteColumn(plan, out);
      };
      std::vector<Row> single;
      ++o->attempted;
      if (!tpch::RunQuery(q, cat, col_exec, &single).ok() ||
          !SameAnswer(single, reference[q])) {
        std::fprintf(stderr, "Q%d: single-RO column answer differs\n", q);
        ++o->failed;
        o->correct = false;
      }
    }
  }

  Stage("reference answers", t0);

  // Warm-up pass (checked, not timed).
  t0 = NowNanos();
  TpchWindow warm;
  RunTpchWindow(cluster.get(), 0, true, reference, nullptr, &warm, o);
  Stage("warm-up pass", t0);

  t0 = NowNanos();
  TpchWindow w;
  const Counters k0 = Counters::Take(cluster.get());
  RunTpchWindow(cluster.get(), trace ? seconds / 2 : seconds, false,
                reference, nullptr, &w, o);
  const Counters k1 = Counters::Take(cluster.get());
  Stage("timed window", t0);
  if (trace) {
    t0 = NowNanos();
    QueryTracer tracer(cluster.get(), ro);
    TpchWindow tw;
    RunTpchWindow(cluster.get(), seconds / 2, true, reference, &tracer, &tw,
                  o);
    Stage("traced window", t0);
    tracer.Report(r, static_cast<double>(tw.queries));
    ReportCommon(r, cluster.get(), k0, k1, static_cast<double>(w.queries));
    r->Metric("trace.overhead", tw.GmeanMs() / w.GmeanMs(), "ratio");
  } else {
    r->Timing("suite_s", w.suite_s.Median(), "s", w.suite_s.n(), 0.5);
    r->Metric("query_gmean_ms", w.GmeanMs(), "ms");
    r->Metric("queries_per_s", 22 / w.suite_s.Median(), "1/s");
  }
  cluster.reset();
  t0 = NowNanos();
  if (!RepeatSetups(setups, open, &setup_s)) {
    std::fprintf(stderr, "set-up failed\n");
    return 1;
  }
  Stage("repeated set-ups", t0);
  r->Timing("setup_s", setup_s.Median(), "s", setup_s.n(), 0.5);
  r->Metric("peak_rss_mb", PeakRssMb(), "MB");
  return 0;
}

// --- CH-benCH transactions -------------------------------------------------

enum class TxnResult { kCommitted, kRolledBack, kBusy, kError };

/// Mirrors ChBench's NewOrder / Payment / Delivery call for call, so the
/// benchmark sees the Transaction (its commit_vid) and can time the
/// TransactionManager calls: statements (lock waits included) and Commit.
class TxnDriver {
 public:
  TxnDriver(TransactionManager* txns, bool trace)
      : txns_(txns), trace_(trace) {}

  /// One transaction of the 48/43/9 mix.
  TxnResult Run(Rng* rng) {
    txn_ = Transaction();
    const uint64_t pick = rng->Next() % 100;
    Status s = pick < 48 ? NewOrder(rng) : pick < 91 ? Payment(rng)
                                                     : Delivery(rng);
    if (s.ok()) {
      return txn_.commit_vid() > 0 ? TxnResult::kCommitted
                                   : TxnResult::kRolledBack;
    }
    if (s.IsBusy()) return TxnResult::kBusy;
    if (s.IsAborted() && txn_.commit_vid() == 0) return TxnResult::kRolledBack;
    error_ = s.ToString();
    return TxnResult::kError;
  }

  Vid commit_vid() const { return txn_.commit_vid(); }
  const std::string& error() const { return error_; }
  Samples stmt_ms, commit_ms;

 private:
  using ChBench = chbench::ChBench;

  template <class F>
  Status Stmt(F&& f) {
    if (!trace_) return f();
    const uint64_t t0 = NowNanos();
    Status s = f();
    stmt_acc_ += MsSince(t0);
    return s;
  }
  Status Finish() {
    if (trace_) stmt_ms.Add(stmt_acc_);
    stmt_acc_ = 0;
    const uint64_t t0 = NowNanos();
    Status s = txns_->Commit(&txn_);
    if (trace_) commit_ms.Add(MsSince(t0));
    return s;
  }
  Status Fail(const Status& s) {
    stmt_acc_ = 0;
    (void)txns_->Rollback(&txn_);
    return s;
  }

  Status NewOrder(Rng* rng) {
    using namespace chbench;
    const int w = 1 + static_cast<int>(rng->Next() % kWarehouses);
    const int d = 1 + static_cast<int>(rng->Next() % 10);
    const int c = 1 + static_cast<int>(rng->Next() % kCustomersPerDistrict);
    txns_->Begin(&txn_);
    Row district;
    Status s = Stmt([&] {
      return txns_->GetForUpdate(&txn_, kDistrict, ChBench::DistrictPk(w, d),
                                 &district);
    });
    if (!s.ok()) return Fail(s);
    const int64_t o_id = AsInt(district[3]);
    district[3] = o_id + 1;
    s = Stmt([&] {
      return txns_->Update(&txn_, kDistrict, ChBench::DistrictPk(w, d),
                           district);
    });
    if (!s.ok()) return Fail(s);
    const int ol_cnt = 5 + static_cast<int>(rng->Next() % 11);
    const int64_t opk = ChBench::OrderPk(w, d, o_id);
    s = Stmt([&] {
      return txns_->Insert(&txn_, kOrder,
                           {opk, int64_t(w), int64_t(d), o_id,
                            ChBench::CustomerPk(w, d, c),
                            int64_t(Epoch() + static_cast<int>(o_id % 365)),
                            int64_t(ol_cnt), Value{}});
    });
    if (!s.ok()) return Fail(s);
    s = Stmt([&] {
      return txns_->Insert(&txn_, kNewOrder,
                           {opk, int64_t(w), int64_t(d), o_id});
    });
    if (!s.ok()) return Fail(s);
    for (int ol = 1; ol <= ol_cnt; ++ol) {
      const int64_t item =
          1 + static_cast<int64_t>(rng->Next() % kItemsPerWarehouse);
      Row stock;
      s = Stmt([&] {
        return txns_->GetForUpdate(&txn_, kStock, ChBench::StockPk(w, item),
                                   &stock);
      });
      if (!s.ok()) return Fail(s);
      int64_t qty = AsInt(stock[3]);
      const int64_t order_qty = 1 + static_cast<int64_t>(rng->Next() % 10);
      qty = qty >= order_qty + 10 ? qty - order_qty : qty - order_qty + 91;
      stock[3] = qty;
      stock[4] = AsInt(stock[4]) + order_qty;
      stock[5] = AsInt(stock[5]) + 1;
      s = Stmt([&] {
        return txns_->Update(&txn_, kStock, ChBench::StockPk(w, item), stock);
      });
      if (!s.ok()) return Fail(s);
      const double amount = static_cast<double>(order_qty) *
                            (1.0 + rng->UniformDouble() * 99.0);
      s = Stmt([&] {
        return txns_->Insert(&txn_, kOrderLine,
                             {ChBench::OrderLinePk(opk, ol), opk, int64_t(w),
                              int64_t(d), int64_t(ol), item, order_qty,
                              amount, Value{}});
      });
      if (!s.ok()) return Fail(s);
    }
    // TPC-C: 1% of NewOrder transactions roll back (invalid item).
    if (rng->Next() % 100 == 0) return Fail(Status::Aborted("invalid item"));
    return Finish();
  }

  Status Payment(Rng* rng) {
    using namespace chbench;
    const int w = 1 + static_cast<int>(rng->Next() % kWarehouses);
    const int d = 1 + static_cast<int>(rng->Next() % 10);
    const int c = 1 + static_cast<int>(rng->Next() % kCustomersPerDistrict);
    const double amount = 1.0 + rng->UniformDouble() * 4999.0;
    txns_->Begin(&txn_);
    Row wh;
    Status s = Stmt([&] {
      return txns_->GetForUpdate(&txn_, kWarehouse, w, &wh);
    });
    if (!s.ok()) return Fail(s);
    wh[2] = AsDouble(wh[2]) + amount;
    s = Stmt([&] { return txns_->Update(&txn_, kWarehouse, w, wh); });
    if (!s.ok()) return Fail(s);
    Row district;
    s = Stmt([&] {
      return txns_->GetForUpdate(&txn_, kDistrict, ChBench::DistrictPk(w, d),
                                 &district);
    });
    if (!s.ok()) return Fail(s);
    district[5] = AsDouble(district[5]) + amount;
    s = Stmt([&] {
      return txns_->Update(&txn_, kDistrict, ChBench::DistrictPk(w, d),
                           district);
    });
    if (!s.ok()) return Fail(s);
    Row cust;
    const int64_t cpk = ChBench::CustomerPk(w, d, c);
    s = Stmt([&] { return txns_->GetForUpdate(&txn_, kCustomer, cpk, &cust); });
    if (!s.ok()) return Fail(s);
    cust[5] = AsDouble(cust[5]) - amount;
    cust[6] = AsDouble(cust[6]) + amount;
    cust[7] = AsInt(cust[7]) + 1;
    s = Stmt([&] { return txns_->Update(&txn_, kCustomer, cpk, cust); });
    if (!s.ok()) return Fail(s);
    return Finish();
  }

  Status Delivery(Rng* rng) {
    using namespace chbench;
    const int w = 1 + static_cast<int>(rng->Next() % kWarehouses);
    const int d = 1 + static_cast<int>(rng->Next() % 10);
    txns_->Begin(&txn_);
    Row district;
    Status s = Stmt([&] {
      return txns_->GetForUpdate(&txn_, kDistrict, ChBench::DistrictPk(w, d),
                                 &district);
    });
    if (!s.ok()) return Fail(s);
    const int64_t del_o = AsInt(district[4]);
    if (del_o >= AsInt(district[3])) return Fail(Status::OK());  // nothing due
    district[4] = del_o + 1;
    s = Stmt([&] {
      return txns_->Update(&txn_, kDistrict, ChBench::DistrictPk(w, d),
                           district);
    });
    if (!s.ok()) return Fail(s);
    const int64_t opk = ChBench::OrderPk(w, d, del_o);
    Row order;
    s = Stmt([&] { return txns_->GetForUpdate(&txn_, kOrder, opk, &order); });
    if (s.ok()) {
      order[7] = int64_t(1 + rng->Next() % 10);  // carrier
      s = Stmt([&] { return txns_->Update(&txn_, kOrder, opk, order); });
      if (!s.ok()) return Fail(s);
      const int64_t ol_cnt = AsInt(order[6]);
      double total = 0;
      for (int64_t ol = 1; ol <= ol_cnt; ++ol) {
        Row line;
        const int64_t lpk = ChBench::OrderLinePk(opk, ol);
        s = Stmt([&] {
          return txns_->GetForUpdate(&txn_, kOrderLine, lpk, &line);
        });
        if (!s.ok()) continue;
        line[8] = int64_t(Epoch() + 400);
        total += AsDouble(line[7]);
        s = Stmt([&] { return txns_->Update(&txn_, kOrderLine, lpk, line); });
        if (!s.ok()) return Fail(s);
      }
      Row cust;
      const int64_t cpk = AsInt(order[4]);
      s = Stmt([&] {
        return txns_->GetForUpdate(&txn_, kCustomer, cpk, &cust);
      });
      if (s.ok()) {
        cust[5] = AsDouble(cust[5]) + total;
        cust[8] = AsInt(cust[8]) + 1;
        s = Stmt([&] { return txns_->Update(&txn_, kCustomer, cpk, cust); });
        if (!s.ok()) return Fail(s);
      }
      Row pending;
      if (Stmt([&] { return txns_->Get(kNewOrder, opk, &pending); }).ok()) {
        s = Stmt([&] { return txns_->Delete(&txn_, kNewOrder, opk); });
        if (!s.ok() && !s.IsNotFound()) return Fail(s);
      }
    }
    return Finish();
  }

  static int32_t Epoch() {
    static const int32_t epoch = MakeDate(2023, 1, 1);
    return epoch;
  }

  TransactionManager* txns_;
  bool trace_;
  Transaction txn_;
  double stmt_acc_ = 0;
  std::string error_;
};

// --- Visibility watcher ----------------------------------------------------

/// The measurement watcher: clients hand it each commit; it polls the RO
/// and records visibility delay (Commit returned -> applied_vid >= the
/// commit's VID). Traced, it also splits the delay at the moment the
/// pipeline's read_lsn passes the RW written_lsn sampled at commit return.
class Watcher {
 public:
  Watcher(RoNode* ro, int clients, bool trace)
      : ro_(ro), trace_(trace), inbox_(clients), pending_(clients) {}

  void Start() {
    stop_.store(false);
    thread_ = std::thread([this] { Loop(); });
  }

  void Submit(int client, Vid vid, Lsn written, uint64_t commit_ns) {
    unseen_.fetch_add(1);
    std::lock_guard<std::mutex> g(inbox_[client].mu);
    inbox_[client].items.push_back({vid, written, commit_ns, 0});
  }

  /// Once the clients are done: waits until every submitted commit was seen
  /// visible (false on timeout), then stops the thread.
  bool DrainAndStop(double timeout_s) {
    const uint64_t t0 = NowNanos();
    while (unseen_.load() > 0 && MsSince(t0) < timeout_s * 1e3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop_.store(true);
    thread_.join();
    return unseen_.load() == 0;
  }
  /// Submitted commits not yet seen visible.
  uint64_t unseen() const { return unseen_.load(); }

  Samples vd_ms, read_ms, apply_ms;
  uint64_t lag_lsn_max = 0;

 private:
  struct Item {
    Vid vid;
    Lsn written;
    uint64_t commit_ns;
    uint64_t read_ns;
  };
  struct Inbox {
    std::mutex mu;
    std::vector<Item> items;
  };

  void Loop() {
    UsePreciseSleeps();
    std::vector<Item> batch;
    while (!stop_.load(std::memory_order_relaxed)) {
      for (size_t c = 0; c < inbox_.size(); ++c) {
        {
          std::lock_guard<std::mutex> g(inbox_[c].mu);
          batch.swap(inbox_[c].items);
        }
        pending_[c].insert(pending_[c].end(), batch.begin(), batch.end());
        batch.clear();
      }
      const Vid applied = ro_->applied_vid();
      const Lsn read = trace_ ? ro_->pipeline()->read_lsn() : 0;
      const uint64_t now = NowNanos();
      if (trace_) lag_lsn_max = std::max(lag_lsn_max, ro_->LsnDelay());
      for (auto& q : pending_) {
        if (trace_) {
          for (Item& it : q) {
            if (it.read_ns != 0) continue;
            if (it.written > read) break;
            it.read_ns = now;
          }
        }
        while (!q.empty() && q.front().vid <= applied) {
          const Item& it = q.front();
          vd_ms.Add((now - it.commit_ns) / 1e6);
          if (trace_) {
            const uint64_t read_ns = it.read_ns ? it.read_ns : now;
            read_ms.Add((read_ns - it.commit_ns) / 1e6);
            apply_ms.Add((now - read_ns) / 1e6);
          }
          q.pop_front();
          unseen_.fetch_sub(1);
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(kWatchPollUs));
    }
  }

  RoNode* ro_;
  bool trace_;
  std::vector<Inbox> inbox_;
  std::vector<std::deque<Item>> pending_;
  std::atomic<uint64_t> unseen_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// --- OLTP workload ---------------------------------------------------------

/// What one window of transactions produced.
struct TxnWindow {
  Samples txn_ms, stmt_ms, commit_ms;
  uint64_t committed = 0, rolled_back = 0, busy = 0, errors = 0;
  uint64_t lock_timeouts = 0;  // aborted attempts that were retried
  std::vector<uint64_t> commit_ns;  // when each Commit returned
  uint64_t start_ns = 0;
  double seconds = 0;
  bool all_visible = true;
  std::unique_ptr<Watcher> watcher;

  uint64_t txns() const { return committed + rolled_back + busy + errors; }

  /// Commits per second: the median over the window's whole 0.5 s slices,
  /// so one stall (a maintenance pass, a noisy neighbour) does not move it.
  double CommitRate() const {
    constexpr uint64_t kSlice = 500'000'000;
    const size_t slices = static_cast<size_t>(seconds * 1e9) / kSlice;
    if (slices == 0) return committed / seconds;
    std::vector<double> count(slices, 0);
    for (uint64_t t : commit_ns) {
      const size_t i = (t - start_ns) / kSlice;
      if (i < slices) ++count[i];
    }
    Samples rate;
    for (double c : count) rate.Add(c * 1e9 / kSlice);
    return rate.Median();
  }
};

/// Runs one window of `clients` closed-loop clients; the last one runs on
/// this thread, so the run uses clients + 1 (the watcher) benchmark threads.
void RunTxnWindow(Cluster* cluster, uint64_t seed, double seconds,
                  int clients, bool trace, TxnWindow* w) {
  RwNode* rw = cluster->rw();
  w->watcher = std::make_unique<Watcher>(cluster->ro(0), clients, trace);
  w->watcher->Start();
  std::mutex mu;
  const uint64_t start = NowNanos();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  w->start_ns = start;
  auto client = [&](int c) {
    UsePreciseSleeps();
    TxnDriver driver(rw->txn_manager(), trace);
    Rng rng(seed * 7919 + 101 * c + 1);
    Rng backoff(seed * 7919 + 101 * c + 2);
    TxnWindow local;
    for (;;) {
      const uint64_t begin = NowNanos();
      if (begin >= end) break;
      // A lock-wait timeout (a deadlock victim) aborts the attempt; the
      // client retries the same transaction after a random back-off, so the
      // two parties of a deadlock do not meet again.
      const Rng inputs = rng;
      TxnResult res = driver.Run(&rng);
      for (int retry = 0; res == TxnResult::kBusy && retry < kMaxRetries;
           ++retry) {
        ++local.lock_timeouts;
        std::this_thread::sleep_for(
            std::chrono::microseconds(backoff.Uniform(100, 2000)));
        rng = inputs;
        res = driver.Run(&rng);
      }
      const uint64_t done = NowNanos();
      switch (res) {
        case TxnResult::kCommitted:
          ++local.committed;
          local.commit_ns.push_back(done);
          w->watcher->Submit(c, driver.commit_vid(), rw->written_lsn(), done);
          break;
        case TxnResult::kRolledBack: ++local.rolled_back; break;
        case TxnResult::kBusy: ++local.busy; break;
        case TxnResult::kError:
          ++local.errors;
          std::fprintf(stderr, "transaction error: %s\n",
                       driver.error().c_str());
          break;
      }
      if (res == TxnResult::kCommitted || res == TxnResult::kRolledBack) {
        local.txn_ms.Add((done - begin) / 1e6);
      }
    }
    std::lock_guard<std::mutex> g(mu);
    w->txn_ms.Append(local.txn_ms);
    w->stmt_ms.Append(driver.stmt_ms);
    w->commit_ms.Append(driver.commit_ms);
    w->committed += local.committed;
    w->commit_ns.insert(w->commit_ns.end(), local.commit_ns.begin(),
                        local.commit_ns.end());
    w->rolled_back += local.rolled_back;
    w->busy += local.busy;
    w->lock_timeouts += local.lock_timeouts;
    w->errors += local.errors;
  };
  std::vector<std::thread> threads;
  for (int c = 0; c + 1 < clients; ++c) threads.emplace_back(client, c);
  client(clients - 1);
  for (auto& t : threads) t.join();
  w->seconds = MsSince(start) / 1e3;
  w->all_visible = w->watcher->DrainAndStop(kDrainTimeoutS);
}

int RunOltp(uint64_t seed, double seconds, bool trace, int setups, Report* r,
            Outcome* o) {
  chbench::ChBench ch(kWarehouses, kItemsPerWarehouse, seed);
  Samples setup_s;
  auto open = [&] { return OpenChBench(ch); };
  uint64_t t0 = NowNanos();
  auto cluster = TimedOpen(open, &setup_s);
  if (!cluster) {
    std::fprintf(stderr, "set-up failed\n");
    return 1;
  }
  Stage("set-up", t0);
  // Peak RSS is taken here, before any transaction: a closed-loop window
  // inserts rows for a fixed time, so a faster commit path would end it
  // with more rows and read as a memory regression.
  const double rss_mb = PeakRssMb();
  r->Info("warehouses", kWarehouses);
  r->Info("items_per_warehouse", kItemsPerWarehouse);
  r->Info("clients", kOltpClients);
  r->Info("loop", "closed");

  auto account = [&](const TxnWindow& w) {
    o->attempted += w.txns();
    o->failed += w.busy + w.errors;
    if (w.errors > 0) o->correct = false;
    if (!w.all_visible) {
      std::fprintf(stderr, "%llu of %llu commits never became visible\n",
                   static_cast<unsigned long long>(w.watcher->unseen()),
                   static_cast<unsigned long long>(w.committed));
      o->correct = false;
    }
  };

  // Warm-up (checked, not timed): threads, allocator and caches settle.
  t0 = NowNanos();
  TxnWindow warm;
  RunTxnWindow(cluster.get(), seed + 2, kTxnWarmupS, kOltpClients, false,
               &warm);
  account(warm);
  Stage("warm-up", t0);

  t0 = NowNanos();
  const Counters k0 = Counters::Take(cluster.get());
  TxnWindow w;
  RunTxnWindow(cluster.get(), seed, trace ? seconds / 2 : seconds,
               kOltpClients, false, &w);
  const Counters k1 = Counters::Take(cluster.get());
  Stage("timed window", t0);
  account(w);
  if (trace) {
    TxnWindow tw;
    t0 = NowNanos();
    RunTxnWindow(cluster.get(), seed + 1, seconds / 2, kOltpClients, true,
                 &tw);
    const Counters k2 = Counters::Take(cluster.get());
    Stage("traced window", t0);
    account(tw);
    ReportCommon(r, cluster.get(), k0, k1, 0);
    r->Metric("txn.stmt_ms", tw.stmt_ms.Mean(), "ms");
    ReportTimings(r, "txn.commit", tw.commit_ms);
    r->Metric("txn.abort_ratio",
              tw.txns() > 0 ? double(tw.rolled_back + tw.lock_timeouts +
                                     tw.busy) /
                                  double(tw.txns() + tw.lock_timeouts)
                            : 0,
              "ratio");
    const double commits = static_cast<double>(tw.committed);
    const uint64_t batches = k2.batches - k1.batches;
    r->Metric("log.fsyncs_per_commit",
              commits > 0 ? (k2.fsyncs - k1.fsyncs) / commits : 0, "ratio");
    r->Metric("log.batch_size",
              batches ? double(k2.batched - k1.batched) / batches : 0,
              "commits");
    r->Metric("log.bytes_per_commit",
              commits > 0 ? (k2.log_bytes - k1.log_bytes) / commits : 0, "B");
    Watcher& wt = *tw.watcher;
    ReportTimings(r, "repl.read", wt.read_ms);
    ReportTimings(r, "repl.apply", wt.apply_ms);
    r->Metric("repl.lag_lsn_max", double(wt.lag_lsn_max), "lsn");
    r->Metric("repl.applied_ops_per_s",
              (k2.applied_ops - k1.applied_ops) / tw.seconds, "1/s");
    r->Metric("repl.compactions", double(k2.compactions - k1.compactions),
              "count");
    r->Metric("repl.retries", double(k2.retries - k1.retries), "count");
    // Transaction p50, traced window over untraced.
    r->Metric("trace.overhead", tw.txn_ms.Median() / w.txn_ms.Median(),
              "ratio");
  } else {
    r->Metric("commits_per_s", w.CommitRate(), "1/s");
    ReportTimings(r, "txn", w.txn_ms);
    ReportTimings(r, "vd", w.watcher->vd_ms);
    r->Metric("fail_ratio",
              w.txns() > 0 ? double(w.busy + w.errors) / w.txns() : 0,
              "ratio");
  }
  t0 = NowNanos();
  if (!ColumnIndexesMatchRowStore(cluster.get(), cluster->ro(0), ch)) {
    ++o->failed;
    o->correct = false;
  }
  Stage("convergence check", t0);
  cluster.reset();
  t0 = NowNanos();
  if (!RepeatSetups(setups, open, &setup_s)) {
    std::fprintf(stderr, "set-up failed\n");
    return 1;
  }
  Stage("repeated set-ups", t0);
  r->Timing("setup_s", setup_s.Median(), "s", setup_s.n(), 0.5);
  r->Metric("peak_rss_mb", rss_mb, "MB");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  if (argc % 2 == 0) {
    std::fprintf(stderr, "flags come in --name value pairs\n");
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::atof(val);
    } else if (key == "--trace") {
      trace = std::atoi(val) != 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  if (seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  const bool tpch = workload.rfind("tpch_", 0) == 0;
  // Set-up is repeated for a steady median: three TPC-H loads cost about
  // what a third of the timed window does; CH-benCH loads are far cheaper.
  const int setups = tpch ? 3 : 11;
  Report r;
  r.Info("workload", workload);
  r.Info("seed", static_cast<double>(seed));
  r.Info("seconds", seconds);
  r.Info("trace", trace ? 1 : 0);
  r.Info("nproc", std::thread::hardware_concurrency());
  r.Info("build_type", PERFBENCH_BUILD_TYPE);
  r.Info("sanitizer", Sanitizer());
  r.Info("fsync_latency_us", kFsyncLatencyUs);
  r.Info("setups", setups);

  Outcome o;
  int rc;
  if (workload == "tpch_olap" || workload == "tpch_fanout") {
    rc = RunTpch(seed, seconds, trace, setups, workload == "tpch_fanout", &r,
                 &o);
  } else if (workload == "oltp_commit") {
    rc = RunOltp(seed, seconds, trace, setups, &r, &o);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  std::printf("%s\n", r.Json(o.correct, o.attempted, o.failed).c_str());
  return o.correct ? 0 : 1;
}
