#ifndef POLARDB_IMCI_CLUSTER_CLUSTER_H_
#define POLARDB_IMCI_CLUSTER_CLUSTER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/ro_node.h"
#include "cluster/rw_node.h"

namespace imci {

/// Session-level consistency (§6.4): eventual reads go to any RO node;
/// strong reads only to an RO whose applied commit VID has caught up with
/// the RW's published commit VID at request time.
enum class Consistency { kEventual, kStrong };

/// The database proxy (§3.1/§6.1 inter-node routing): a stateless layer that
/// directs writes to the RW node and balances read-only queries across RO
/// nodes by active session count. Routing degrades gracefully: unhealthy
/// (wedged/retired) nodes are skipped, and with no healthy RO at all the
/// query falls back to the RW's snapshot engine — never an error.
class Proxy {
 public:
  Proxy(RwNode* rw, std::vector<RoNode*>* ros, std::mutex* topo_mu)
      : rw_(rw), ros_(ros), topo_mu_(topo_mu) {}

  RwNode* Write() { return rw_; }

  /// Picks the least-loaded healthy RO node; nullptr when none. A peek —
  /// it does not claim a session (ExecuteQuery claims atomically under the
  /// topology lock via AcquireRo, so eviction cannot free a node mid-query).
  RoNode* PickRo();

  /// Routes a read-only query: inter-node (this), then intra-node (the RO's
  /// optimizer). Strong consistency waits for the chosen node to catch up
  /// to the RW's commit VID at submission (RoNode::WaitForVid); if the node
  /// goes unhealthy mid-wait the query re-routes to a surviving RO (or the
  /// RW) instead of hanging.
  Status ExecuteQuery(const LogicalRef& plan, std::vector<Row>* out,
                      Consistency consistency = Consistency::kEventual,
                      EngineChoice* chosen = nullptr);

  /// Queries the RW answered because no healthy RO was available.
  uint64_t rw_fallbacks() const {
    return rw_fallbacks_.load(std::memory_order_relaxed);
  }

  /// Attaches the multi-RO fragment coordinator. Once set, eligible analytic
  /// queries fan out across the fleet first; anything the coordinator
  /// declines (or abandons) falls through to the single-RO path below.
  void set_coordinator(QueryCoordinator* c) { coordinator_ = c; }

 private:
  /// PickRo + EnterSession in one critical section: a claimed session keeps
  /// the node alive until LeaveSession (eviction drains sessions first).
  RoNode* AcquireRo();

  RwNode* rw_;
  std::vector<RoNode*>* ros_;
  std::mutex* topo_mu_;
  QueryCoordinator* coordinator_ = nullptr;
  std::atomic<uint64_t> rw_fallbacks_{0};
};

/// Self-healing knobs (the fleet monitor thread): when enabled, the cluster
/// detects wedged / hung / hopelessly lagging RO nodes, evicts them from
/// routing, and (optionally) boots archive/checkpoint-based replacements
/// that are re-admitted once they converge. A node is hopelessly lagging
/// after 5 consecutive checks with an apply lag (LSN backlog) above 2^20
/// records: a single burst of writes must not get a healthy node evicted.
struct FleetHealthOptions {
  bool enabled = false;
  uint64_t check_interval_us = 2'000;
  /// A replicating node whose coordinator heartbeat is older than this is
  /// considered hung (thread stuck in storage) and evicted like a wedge.
  uint64_t heartbeat_timeout_us = 2'000'000;
  /// Boot a replacement whenever the fleet is below its Open() size.
  bool auto_replace = true;
  /// Replacements join routing only once their apply lag is at or below
  /// this (re-admission gate).
  uint64_t readmit_max_lag = 64;
};

struct ClusterOptions {
  PolarFs::Options fs;
  RoNodeOptions ro;
  int initial_ro_nodes = 1;
  FleetHealthOptions health;
  CoordinatorOptions coordinator;
};

/// A PolarDB-IMCI cluster in one process: shared storage + one RW node +
/// elastic RO nodes + proxy. Node roles follow §7: the first RO node is the
/// leader (issues checkpoints); if it leaves, the next is designated.
class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  Status CreateTable(std::shared_ptr<const Schema> schema) {
    return rw_->CreateTable(std::move(schema));
  }
  Status BulkLoad(TableId table, std::vector<Row> rows) {
    return rw_->BulkLoad(table, std::move(rows));
  }

  /// Finishes loading: flushes the row store, boots the initial RO nodes and
  /// starts replication on them.
  Status Open();

  /// Scale-out (§7): boots a new RO node from the latest checkpoint (fast
  /// recovery) or by rebuild, starts replication, and returns it. The node
  /// serves queries immediately; use `node->LsnDelay()` to watch catch-up.
  Status AddRoNode(RoNode** out);

  /// Scale-in: stops and removes RO node `index`; re-designates the leader
  /// if needed.
  Status RemoveRoNode(size_t index);

  /// Asks the RO leader to checkpoint (CSN = its applied VID), then recycles
  /// redo segments no longer needed by the *previous* completed checkpoint
  /// and binlog segments below the slowest logical-apply cursor.
  Status TriggerCheckpoint();

  /// Recycles shared-log storage (§7): truncates the "redo" log below the
  /// latest completed checkpoint's start LSN, clamped by the slowest
  /// redo-consuming RO's read position so no pipeline loses its tail.
  /// Segment-granular — only whole sealed segments are reclaimed. Returns
  /// the LSN up to which records were recycled via `recycled_upto`.
  Status RecycleRedoLog(Lsn* recycled_upto = nullptr);

  /// Recycles binlog storage (PR 2 follow-up): truncates the "binlog" log
  /// below the slowest logical-apply RO's read position, so the binlog arm
  /// no longer leaks segments on long runs. A no-op when no logical-apply
  /// node is attached — a later logical-apply boot replays the binlog from
  /// LSN 0 over the base state, so with no consumer cursor to clamp to,
  /// nothing is provably reclaimable. Segment-granular, like the redo path.
  /// With the archive tier attached (PolarFs::Options::enable_archive),
  /// recycled segments are sealed into the archive first, and later
  /// logical-apply boots bridge the recycled prefix from there.
  Status RecycleBinlog(Lsn* recycled_upto = nullptr);

  /// Point-in-time recovery: a cluster environment restored to exactly the
  /// durable prefix at `lsn`, independent of the live one. Declaration order
  /// matters to destruction: the node detaches before its catalog and fs go.
  struct RestoredCluster {
    std::unique_ptr<PolarFs> fs;
    std::unique_ptr<Catalog> catalog;
    std::unique_ptr<RoNode> node;
    uint64_t anchor_ckpt_id = 0;  // snapshot anchor restore started from
    Lsn lsn = 0;                  // redo LSN actually restored to
    Vid applied_vid = 0;          // commit point visible on the node
    size_t undone = 0;            // in-flight versions rolled back at the cut
  };

  /// Restores a fresh, self-contained environment to redo LSN `lsn` (clamped
  /// to the live log's written tail): picks the nearest snapshot anchor at
  /// or below it, primes a new PolarFs from the anchor's copy, splices the
  /// archived + live redo suffix up to exactly `lsn` into the new log (the
  /// pre-seeded truncation watermark keeps original LSNs), and boots + fully
  /// replays an RO over it. Durable-prefix semantics at the cut: replay
  /// stops at `lsn`, and transactions whose commit decision lies beyond it
  /// are rolled back (row replica) / never surfaced (column state). `lsn`
  /// may lie far below the recycle watermark — that is the point of the
  /// archive tier. NotSupported without an archive; Corruption when the
  /// spliced history is torn, truncated, or gapped — never a silent partial
  /// restore.
  Status RestoreToLsn(Lsn lsn, RestoredCluster* out);

  RwNode* rw() { return rw_.get(); }
  Proxy* proxy() { return &proxy_; }
  QueryCoordinator* coordinator() { return coordinator_.get(); }
  PolarFs* fs() { return &fs_; }
  Catalog* catalog() { return &catalog_; }
  std::vector<RoNode*> ro_nodes();
  RoNode* ro(size_t i);
  RoNode* leader();

  // --- Self-healing fleet (FleetHealthOptions) ----------------------------

  /// Starts/stops the background fleet monitor (Open() starts it when
  /// options.health.enabled). Idempotent.
  void StartHealthMonitor();
  void StopHealthMonitor();

  /// Removes `node` from routing, re-designates the leader if needed,
  /// drains its in-flight sessions, and destroys it. NotFound when the
  /// node already left the fleet.
  Status EvictRoNode(RoNode* node);

  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  uint64_t replacements() const {
    return replacements_.load(std::memory_order_relaxed);
  }

 private:
  Status RecycleRedoLogLocked(Lsn* recycled_upto);
  Status RecycleBinlogLocked(Lsn* recycled_upto);
  void MonitorLoop();
  /// Boots a fresh RO via the normal checkpoint/archive bootstrap path and
  /// admits it into routing once its apply lag converged.
  Status BootReplacement();

  ClusterOptions options_;
  PolarFs fs_;
  Catalog catalog_;
  std::unique_ptr<RwNode> rw_;
  /// Serializes topology/checkpoint admin operations (AddRoNode,
  /// RemoveRoNode, TriggerCheckpoint, RecycleRedoLog) against each other:
  /// recycling must never truncate redo records a node that is still
  /// booting (Boot'd but not yet registered in ro_nodes_) will replay.
  std::mutex admin_mu_;
  std::mutex topo_mu_;
  std::vector<std::unique_ptr<RoNode>> ro_owned_;
  std::vector<RoNode*> ro_nodes_;
  Proxy proxy_;
  std::unique_ptr<QueryCoordinator> coordinator_;
  uint64_t next_ckpt_id_ = 1;
  int next_ro_id_ = 1;

  std::thread monitor_;
  std::atomic<bool> monitor_running_{false};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> replacements_{0};
  /// Fleet size the monitor restores toward (set by Open()).
  size_t target_fleet_size_ = 0;
};

}  // namespace imci

#endif  // POLARDB_IMCI_CLUSTER_CLUSTER_H_
