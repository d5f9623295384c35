#ifndef POLARDB_IMCI_CLUSTER_RO_NODE_H_
#define POLARDB_IMCI_CLUSTER_RO_NODE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "plan/optimizer.h"
#include "replication/pipeline.h"

namespace imci {

struct RoNodeOptions {
  ReplicationOptions replication;
  ColumnIndexOptions imci;
  /// Column-executor workers. Also the node's per-query token budget:
  /// concurrent analytics queries share this many tokens, each query's
  /// parallelism is clamped to its grant (minimum 1 — a query is never
  /// refused, it degrades toward serial).
  int exec_threads = 8;
  int default_parallelism = 8;
  /// Morsel size for column scans, in row groups per dispatch.
  int morsel_row_groups = 1;
};

/// A read-only node (§3.1): dual-format storage — a row-store replica (its
/// buffer pool, maintained by Phase#1) plus in-memory column indexes — and
/// dual execution engines with cost-based intra-node routing.
class RoNode {
 public:
  RoNode(std::string name, PolarFs* fs, Catalog* catalog,
         RoNodeOptions options);
  ~RoNode();

  /// Boots the node: attaches row tables from the shared registry, then
  /// either fast-recovers column indexes from the latest checkpoint (§7) or
  /// rebuilds them by scanning the row store (the DDL path, §3.3). Returns
  /// the LSN replication must start from.
  Status Boot();

  /// Starts/stops the background replication pipeline.
  void StartReplication();
  void StopReplication();
  /// Synchronously applies everything currently in the log (tests).
  Status CatchUpNow();

  // --- Query execution ----------------------------------------------------

  /// Runs on the column engine at the applied read view, registered with
  /// the node's snapshot registry (engine()->snapshots()) for the whole run
  /// so maintenance keeps every version the plan can still read. When
  /// `dop_used` is non-null it receives the parallelism actually granted
  /// after token clamping (surfaced by the bench scheduler counters).
  Status ExecuteColumn(const LogicalRef& plan, std::vector<Row>* out,
                       int parallelism = 0, int* dop_used = nullptr);
  /// Runs a column plan at `read_vid`, which the caller has already
  /// registered with engine()->snapshots() and keeps registered until this
  /// returns (ExecuteColumn and FragmentService::Execute). `parallelism`
  /// 0 sizes the dop via ChooseDop; either way it is clamped to a
  /// query-token grant.
  Status RunColumnAt(const LogicalRef& plan, Vid read_vid, int parallelism,
                     std::vector<Row>* out, int* dop_used = nullptr);
  /// Runs on the row engine against the row-store replica, at the node's
  /// applied commit point — exactly like RwNode::ExecuteSnapshot: Phase#1
  /// installs replayed page changes as in-flight versions and Phase#2
  /// stamps them at the commit decision, so a row scan can never observe a
  /// transaction mid-apply. The snapshot is registered with the same
  /// registry as column plans, so maintenance pruning keeps every version
  /// the plan can still read.
  Status ExecuteRow(const LogicalRef& plan, std::vector<Row>* out);
  /// Cost-based intra-node routing (§6.1): row engine for cheap/point
  /// queries, column engine otherwise.
  Status Execute(const LogicalRef& plan, std::vector<Row>* out,
                 EngineChoice* chosen = nullptr);

  /// Refreshes optimizer statistics by sampling the column indexes.
  void RefreshStats();

  /// Crash-recovery epilogue (ARIES undo): after replaying a *final* log —
  /// one that ends at a crash's durable watermark and will receive no
  /// further records — rolls the row replica back to the durable commit
  /// prefix: page effects of transactions whose commit decision never made
  /// it into the log are physically reverted from their version-chain
  /// images. The commit-gated column state needs no such pass (Phase#2
  /// only ever surfaced decided transactions). Never call this against a
  /// live RW: the pipeline would still deliver those decisions. Returns the
  /// number of versions undone.
  size_t RecoverRowReplica();

  // --- State --------------------------------------------------------------

  const std::string& name() const { return name_; }
  Vid applied_vid() const { return pipeline_.applied_vid(); }
  /// Waits until applied_vid() >= `vid`: the freshness fence of strong
  /// reads (Proxy::ExecuteQuery) and of fragment catch-up
  /// (FragmentService::Execute). Polls every 100 µs, sleeping so the apply
  /// workers the wait depends on keep the core. Returns OK once covered;
  /// Busy if the node stops being healthy or `timeout_us` passes first.
  Status WaitForVid(Vid vid, uint64_t timeout_us = UINT64_MAX) const;
  uint64_t LsnDelay() const { return pipeline_.LsnDelay(); }
  bool replicating() const { return replicating_.load(); }

  /// One health sample, as read by the cluster's fleet monitor.
  struct Health {
    bool replicating = false;
    bool wedged = false;         // pipeline hit a terminal failure
    Status wedge_reason;         // OK unless wedged
    uint64_t apply_lag = 0;      // LsnDelay: shipped-but-unconsumed backlog
    uint64_t heartbeat_age_us = 0;  // staleness of the coordinator's tick
  };
  Health health() const;

  /// Routable: replicating, not wedged, not retired by the fleet monitor.
  bool healthy() const {
    return replicating_.load() && !retired_.load() && !pipeline_.wedged();
  }
  /// Marks the node as leaving the fleet: pickers skip it and strong-read
  /// waiters bail out, so the evictor's session drain terminates.
  void Retire() { retired_.store(true); }
  bool retired() const { return retired_.load(); }

  bool is_leader() const { return leader_.load(); }
  void set_leader(bool on) { leader_.store(on); }
  /// RO-leader duty: request a checkpoint at the next replication boundary.
  void RequestCheckpoint(uint64_t ckpt_id) {
    pipeline_.RequestCheckpoint(ckpt_id);
  }

  int active_sessions() const { return active_sessions_.load(); }
  void EnterSession() { active_sessions_.fetch_add(1); }
  void LeaveSession() { active_sessions_.fetch_sub(1); }

  const RoNodeOptions& options() const { return options_; }
  ReplicationPipeline* pipeline() { return &pipeline_; }
  ImciStore* imci() { return &imci_; }
  RowStoreEngine* engine() { return &engine_; }
  StatsCollector* stats() { return &stats_; }
  ThreadPool* exec_pool() { return &exec_pool_; }
  QueryTokenLedger* query_tokens() { return &query_tokens_; }

 private:
  Status RebuildFromRowStore();

  std::string name_;
  PolarFs* fs_;
  Catalog* catalog_;
  RoNodeOptions options_;
  RowStoreEngine engine_;
  ImciStore imci_;
  ThreadPool exec_pool_;
  QueryTokenLedger query_tokens_;
  ThreadPool repl_pool_;
  ReplicationPipeline pipeline_;
  StatsCollector stats_;
  Lsn boot_lsn_ = 0;
  Vid boot_vid_ = 0;
  std::atomic<bool> leader_{false};
  std::atomic<bool> replicating_{false};
  std::atomic<bool> retired_{false};
  std::atomic<int> active_sessions_{0};
};

}  // namespace imci

#endif  // POLARDB_IMCI_CLUSTER_RO_NODE_H_
