#include "cluster/cluster.h"

#include <algorithm>
#include <thread>
#include <unordered_map>

#include "archive/archive.h"
#include "common/clock.h"
#include "common/coding.h"
#include "imci/checkpoint.h"
#include "log/log_store.h"

namespace imci {

namespace {
/// Fleet monitor: apply lag above which a node earns a strike, and the
/// consecutive strikes that evict it (FleetHealthOptions).
constexpr uint64_t kMaxApplyLag = 1 << 20;
constexpr int kLagStrikes = 5;

RoNode* PickLeastLoadedLocked(const std::vector<RoNode*>& ros) {
  RoNode* best = nullptr;
  for (RoNode* ro : ros) {
    if (!ro->healthy()) continue;
    if (best == nullptr || ro->active_sessions() < best->active_sessions()) {
      best = ro;
    }
  }
  return best;
}
}  // namespace

RoNode* Proxy::PickRo() {
  std::lock_guard<std::mutex> g(*topo_mu_);
  return PickLeastLoadedLocked(*ros_);
}

RoNode* Proxy::AcquireRo() {
  std::lock_guard<std::mutex> g(*topo_mu_);
  RoNode* best = PickLeastLoadedLocked(*ros_);
  // Claim under the topology lock: EvictRoNode retires the node under this
  // same lock and then drains sessions before destroying it, so a claimed
  // node stays alive for the duration of this query.
  if (best != nullptr) best->EnterSession();
  return best;
}

Status Proxy::ExecuteQuery(const LogicalRef& plan, std::vector<Row>* out,
                           Consistency consistency, EngineChoice* chosen) {
  // Strong reads (§6.4) see every commit made before submission: the RW's
  // published commit VID is sampled once here, and whichever node answers
  // must have applied up to it. (Not last_commit_vid(): that also counts
  // commits still inside their commit call, which the submitter cannot
  // have observed.) Commit VIDs are shared by both apply
  // sources, so one fence serves redo-reuse and logical-binlog nodes alike;
  // and since only commits advance it, open transactions and rollbacks
  // never hold a reader back. Eventual reads use floor 0, which every node
  // already covers.
  const Vid committed = consistency == Consistency::kStrong
                            ? rw_->txn_manager()->snapshot_vid()
                            : 0;
  if (coordinator_ != nullptr) {
    // Distributed-first: fan the query out across the healthy RO fleet at
    // one common snapshot no lower than `committed`. Anything the
    // coordinator declines or abandons falls through unchanged.
    bool attempted = false;
    Status s = coordinator_->Execute(plan, committed, out, &attempted);
    if (attempted) {
      if (chosen) *chosen = EngineChoice::kColumnEngine;
      return s;
    }
  }
  for (;;) {
    RoNode* ro = AcquireRo();
    if (ro == nullptr) {
      // Graceful degradation: with no healthy RO the read goes to the RW's
      // snapshot engine — slower, but never a client-visible error, and
      // trivially strong (the RW sees its own writes).
      rw_fallbacks_.fetch_add(1, std::memory_order_relaxed);
      if (chosen) *chosen = EngineChoice::kRowEngine;
      return rw_->ExecuteSnapshot(plan, out);
    }
    if (!ro->WaitForVid(committed).ok()) {
      // The node wedged or was retired mid-wait: release it (unblocking
      // the evictor's drain) and re-route instead of hanging forever.
      ro->LeaveSession();
      continue;
    }
    Status s = ro->Execute(plan, out, chosen);
    ro->LeaveSession();
    return s;
  }
}

Cluster::Cluster(ClusterOptions options)
    : options_(options),
      fs_(options.fs),
      rw_(std::make_unique<RwNode>(&fs_, &catalog_)),
      proxy_(rw_.get(), &ro_nodes_, &topo_mu_) {
  // Channel factory: wraps every currently-healthy RO in a session-claimed
  // in-process channel, under the topology lock — the same claim discipline
  // as Proxy::AcquireRo, so eviction drains (never destroys) a participant
  // mid-fragment.
  coordinator_ = std::make_unique<QueryCoordinator>(
      &catalog_, options_.coordinator, [this] {
        std::vector<std::unique_ptr<FragmentChannel>> chans;
        std::lock_guard<std::mutex> g(topo_mu_);
        for (RoNode* ro : ro_nodes_) {
          if (!ro->healthy()) continue;
          chans.push_back(std::make_unique<InProcessFragmentChannel>(ro));
        }
        return chans;
      });
  proxy_.set_coordinator(coordinator_.get());
}

Cluster::~Cluster() {
  StopHealthMonitor();
  for (auto& ro : ro_owned_) ro->StopReplication();
}

Status Cluster::Open() {
  // Logical-apply ROs can only make progress if the RW actually writes the
  // binlog; tying the knobs here keeps the configuration coherent (a bench
  // may still toggle binlog logging explicitly afterwards).
  if (options_.ro.replication.source == ApplySource::kLogicalBinlog) {
    rw_->txn_manager()->set_binlog_enabled(true);
  }
  IMCI_RETURN_NOT_OK(rw_->FinishLoad());
  // Register the freshly-flushed base image as restore anchor 0 — until the
  // first checkpoint completes, it is the only state RestoreToLsn can start
  // replay from.
  if (ArchiveStore* arc = fs_.archive()) {
    Lsn base = 0;
    IMCI_RETURN_NOT_OK(RwNode::ReadBaseLsn(&fs_, &base));
    IMCI_RETURN_NOT_OK(arc->snapshots()->Register(0, 0, base));
  }
  for (int i = 0; i < options_.initial_ro_nodes; ++i) {
    RoNode* node = nullptr;
    IMCI_RETURN_NOT_OK(AddRoNode(&node));
  }
  target_fleet_size_ = static_cast<size_t>(options_.initial_ro_nodes);
  if (options_.health.enabled) StartHealthMonitor();
  return Status::OK();
}

Status Cluster::AddRoNode(RoNode** out) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  auto node = std::make_unique<RoNode>(
      "ro" + std::to_string(next_ro_id_++), &fs_, &catalog_, options_.ro);
  IMCI_RETURN_NOT_OK(node->Boot());
  node->StartReplication();
  RoNode* raw = node.get();
  {
    std::lock_guard<std::mutex> g(topo_mu_);
    ro_owned_.push_back(std::move(node));
    ro_nodes_.push_back(raw);
    // §7: the first RO node in the cluster is the leader.
    if (ro_nodes_.size() == 1) raw->set_leader(true);
  }
  if (out) *out = raw;
  return Status::OK();
}

Status Cluster::RemoveRoNode(size_t index) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  std::unique_ptr<RoNode> victim;
  {
    std::lock_guard<std::mutex> g(topo_mu_);
    if (index >= ro_nodes_.size()) return Status::OutOfRange("ro index");
    const bool was_leader = ro_nodes_[index]->is_leader();
    victim = std::move(ro_owned_[index]);
    ro_owned_.erase(ro_owned_.begin() + index);
    ro_nodes_.erase(ro_nodes_.begin() + index);
    if (was_leader && !ro_nodes_.empty()) {
      // RW re-designates one of the followers as the new leader (§7).
      ro_nodes_.front()->set_leader(true);
    }
  }
  victim->StopReplication();
  return Status::OK();
}

Status Cluster::TriggerCheckpoint() {
  std::lock_guard<std::mutex> admin(admin_mu_);
  RoNode* l = leader();
  if (l == nullptr) return Status::NotFound("no leader");
  l->RequestCheckpoint(next_ckpt_id_++);
  // Recycle what the previous completed checkpoint made reclaimable; the one
  // just requested pays off at the next trigger. Periodic checkpoints thus
  // keep log storage bounded in long runs. The binlog arm recycles against
  // its consumers' cursors, not the checkpoint manifest (binlog LSNs are a
  // different space), but rides the same trigger cadence.
  IMCI_RETURN_NOT_OK(RecycleRedoLogLocked(nullptr));
  IMCI_RETURN_NOT_OK(RecycleBinlogLocked(nullptr));
  // Same watermark discipline for the RW node's MVCC version chains: drop
  // row history below the oldest live snapshot.
  rw_->PruneVersions();
  return Status::OK();
}

Status Cluster::RecycleRedoLog(Lsn* recycled_upto) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  return RecycleRedoLogLocked(recycled_upto);
}

Status Cluster::RecycleRedoLogLocked(Lsn* recycled_upto) {
  if (recycled_upto) *recycled_upto = 0;
  Vid csn = 0;
  Lsn safe = 0;
  Status s = ImciCheckpoint::ReadLatestManifest(&fs_, &csn, &safe, nullptr);
  if (s.IsNotFound()) return Status::OK();  // nothing reclaimable yet
  IMCI_RETURN_NOT_OK(s);
  {
    std::lock_guard<std::mutex> g(topo_mu_);
    for (RoNode* ro : ro_nodes_) {
      // Binlog-space pipelines don't consume redo; their cursors don't clamp.
      if (ro->pipeline()->source() != ApplySource::kRedoReuse) continue;
      safe = std::min(safe, ro->pipeline()->read_lsn());
    }
  }
  IMCI_RETURN_NOT_OK(fs_.log("redo")->Truncate(safe));
  if (recycled_upto) *recycled_upto = fs_.log("redo")->truncated_lsn();
  return Status::OK();
}

Status Cluster::RecycleBinlog(Lsn* recycled_upto) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  return RecycleBinlogLocked(recycled_upto);
}

Status Cluster::RecycleBinlogLocked(Lsn* recycled_upto) {
  if (recycled_upto) *recycled_upto = 0;
  // Only logical-apply cursors make binlog history reclaimable: every
  // attached consumer has applied what we cut. With the archive attached,
  // the sealed segments keep later logical-apply boots possible
  // (RoNode::Boot bridges the recycled prefix from the archive); without
  // it, new logical-apply boots below the cut are refused. With no
  // consumer there is no cursor to clamp to, so nothing is recycled.
  Lsn safe = 0;
  bool has_consumer = false;
  {
    std::lock_guard<std::mutex> g(topo_mu_);
    for (RoNode* ro : ro_nodes_) {
      if (ro->pipeline()->source() != ApplySource::kLogicalBinlog) continue;
      const Lsn cursor = ro->pipeline()->read_lsn();
      safe = has_consumer ? std::min(safe, cursor) : cursor;
      has_consumer = true;
    }
  }
  if (!has_consumer) return Status::OK();
  IMCI_RETURN_NOT_OK(fs_.log("binlog")->Truncate(safe));
  if (recycled_upto) *recycled_upto = fs_.log("binlog")->truncated_lsn();
  return Status::OK();
}

Status Cluster::RestoreToLsn(Lsn lsn, RestoredCluster* out) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  ArchiveStore* arc = fs_.archive();
  if (arc == nullptr) {
    return Status::NotSupported("point-in-time recovery needs the archive "
                                "tier (PolarFs::Options::enable_archive)");
  }
  LogStore* redo = fs_.log("redo");
  // Clamp to the durable watermark: restore reproduces durable history, and
  // written-but-unfsynced records are retractable (a failed batch fsync
  // trims them), so they must never be spliced into a restored log.
  const Lsn target = std::min(lsn, redo->durable_lsn());
  SnapshotStore::Anchor anchor;
  IMCI_RETURN_NOT_OK(arc->snapshots()->FindAnchor(target, &anchor));
  auto fs = std::make_unique<PolarFs>(options_.fs);
  IMCI_RETURN_NOT_OK(arc->snapshots()->Restore(anchor, fs.get()));
  // LSN alignment: pre-seed the fresh redo log's truncation watermark at
  // the anchor's start LSN *before* its first open, so the spliced records
  // appended below keep their original LSNs (the anchor's checkpoint
  // manifest and page LSNs are all in that space).
  std::string wm;
  PutFixed64(&wm, anchor.start_lsn);
  IMCI_RETURN_NOT_OK(fs->WriteFile("log/redo/TRUNCATED", std::move(wm)));
  // Splice the redo history (anchor.start_lsn, target]: the archived prefix
  // (below the live log's recycle watermark) first, the live tail after.
  std::vector<std::string> records;
  Lsn cursor = anchor.start_lsn;
  const Lsn archived_to = std::min(target, arc->archived_upto("redo"));
  if (archived_to > cursor) {
    IMCI_RETURN_NOT_OK(
        arc->ReadRecords("redo", cursor, archived_to, &records, &cursor));
  }
  if (cursor < target) {
    Status read_error;
    cursor = redo->Read(cursor, target, &records, &read_error);
    IMCI_RETURN_NOT_OK(read_error);
  }
  if (cursor != target ||
      records.size() != static_cast<size_t>(target - anchor.start_lsn)) {
    return Status::Corruption(
        "restore splice incomplete: history (" +
        std::to_string(anchor.start_lsn) + ", " + std::to_string(target) +
        "] not contiguously available");
  }
  // Replay stops at exactly `target` because nothing past it exists in the
  // restored log — CatchUpNow below cannot overshoot. The splice is durable
  // history, so append it durably: replication consumes only the durable
  // prefix, and a watermark stuck at the anchor would replay nothing.
  if (!records.empty()) {
    Status append_error;
    fs->log("redo")->Append(std::move(records), true, &append_error);
    IMCI_RETURN_NOT_OK(append_error);
  }
  auto catalog = std::make_unique<Catalog>();
  for (const auto& schema : catalog_.All()) catalog->Register(schema);
  RoNodeOptions ro = options_.ro;
  // The restored environment replays physical redo regardless of what arm
  // the live cluster's ROs run: the snapshot's pages + redo suffix are the
  // durable history.
  ro.replication.source = ApplySource::kRedoReuse;
  auto node =
      std::make_unique<RoNode>("restore", fs.get(), catalog.get(), ro);
  IMCI_RETURN_NOT_OK(node->Boot());
  IMCI_RETURN_NOT_OK(node->CatchUpNow());
  // Durable-prefix cut: transactions still undecided at `target` roll back.
  const size_t undone = node->RecoverRowReplica();
  out->anchor_ckpt_id = anchor.ckpt_id;
  out->lsn = target;
  out->applied_vid = node->applied_vid();
  out->undone = undone;
  out->node = std::move(node);
  out->catalog = std::move(catalog);
  out->fs = std::move(fs);
  return Status::OK();
}

void Cluster::StartHealthMonitor() {
  if (monitor_running_.exchange(true)) return;
  monitor_ = std::thread([this] { MonitorLoop(); });
}

void Cluster::StopHealthMonitor() {
  monitor_running_.store(false);
  if (monitor_.joinable()) monitor_.join();
}

void Cluster::MonitorLoop() {
  // Consecutive over-lag-limit samples per node, keyed by name (pointers
  // die with eviction).
  std::unordered_map<std::string, int> lag_strikes;
  while (monitor_running_.load(std::memory_order_acquire)) {
    YieldFor(options_.health.check_interval_us);
    RoNode* victim = nullptr;
    for (RoNode* node : ro_nodes()) {
      const RoNode::Health h = node->health();
      if (!h.replicating) continue;  // stopped by an admin, not a failure
      if (h.wedged) {
        victim = node;  // terminal: storage failures exhausted the retries
        break;
      }
      if (h.heartbeat_age_us > options_.health.heartbeat_timeout_us) {
        victim = node;  // coordinator hung inside storage — same as dead
        break;
      }
      if (h.apply_lag > kMaxApplyLag) {
        if (++lag_strikes[node->name()] >= kLagStrikes) {
          victim = node;  // persistently unable to keep up
          break;
        }
      } else {
        lag_strikes.erase(node->name());
      }
    }
    if (victim != nullptr) {
      lag_strikes.erase(victim->name());
      (void)EvictRoNode(victim);  // NotFound = an admin removed it first
      continue;  // replace on the next tick; re-check the survivors first
    }
    if (options_.health.auto_replace &&
        ro_nodes().size() < target_fleet_size_) {
      // Boot failures (e.g. faults still raging) are retried next tick.
      (void)BootReplacement();
    }
  }
}

Status Cluster::EvictRoNode(RoNode* node) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  std::unique_ptr<RoNode> victim;
  {
    std::lock_guard<std::mutex> g(topo_mu_);
    const auto it = std::find(ro_nodes_.begin(), ro_nodes_.end(), node);
    if (it == ro_nodes_.end()) return Status::NotFound("node not in fleet");
    const size_t index = static_cast<size_t>(it - ro_nodes_.begin());
    const bool was_leader = node->is_leader();
    // Retire under the topology lock: from here no AcquireRo admits a new
    // session, and strong-read waiters already inside see !healthy() and
    // bail — both of which the drain below depends on.
    node->Retire();
    victim = std::move(ro_owned_[index]);
    ro_owned_.erase(ro_owned_.begin() + static_cast<ptrdiff_t>(index));
    ro_nodes_.erase(it);
    if (was_leader && !ro_nodes_.empty()) {
      // RW re-designates one of the followers as the new leader (§7).
      ro_nodes_.front()->set_leader(true);
    }
  }
  // Drain: queries already admitted finish against the (still live) node
  // before it is destroyed; none can join after Retire().
  while (victim->active_sessions() > 0) YieldFor(100);
  victim->StopReplication();
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Cluster::BootReplacement() {
  // admin_mu_ held across boot *and* convergence: recycling must not
  // truncate redo/binlog records the replacement is still replaying.
  std::lock_guard<std::mutex> admin(admin_mu_);
  auto node = std::make_unique<RoNode>(
      "ro" + std::to_string(next_ro_id_++), &fs_, &catalog_, options_.ro);
  IMCI_RETURN_NOT_OK(node->Boot());
  node->StartReplication();
  // Re-admission gate: the node serves no queries until its apply lag
  // converges — routing to a cold replica would violate the freshness the
  // fleet was sized for.
  while (monitor_running_.load(std::memory_order_acquire)) {
    if (node->pipeline()->wedged()) return node->pipeline()->wedge_reason();
    if (node->LsnDelay() <= options_.health.readmit_max_lag) break;
    YieldFor(200);
  }
  RoNode* raw = node.get();
  {
    std::lock_guard<std::mutex> g(topo_mu_);
    ro_owned_.push_back(std::move(node));
    ro_nodes_.push_back(raw);
    bool has_leader = false;
    for (RoNode* ro : ro_nodes_) has_leader = has_leader || ro->is_leader();
    if (!has_leader) raw->set_leader(true);
  }
  replacements_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

std::vector<RoNode*> Cluster::ro_nodes() {
  std::lock_guard<std::mutex> g(topo_mu_);
  return ro_nodes_;
}

RoNode* Cluster::ro(size_t i) {
  std::lock_guard<std::mutex> g(topo_mu_);
  return i < ro_nodes_.size() ? ro_nodes_[i] : nullptr;
}

RoNode* Cluster::leader() {
  std::lock_guard<std::mutex> g(topo_mu_);
  for (RoNode* ro : ro_nodes_) {
    if (ro->is_leader()) return ro;
  }
  return nullptr;
}

}  // namespace imci
