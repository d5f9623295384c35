#include "cluster/ro_node.h"

#include "archive/archive.h"
#include "cluster/rw_node.h"
#include "common/clock.h"

namespace imci {

RoNode::RoNode(std::string name, PolarFs* fs, Catalog* catalog,
               RoNodeOptions options)
    : name_(std::move(name)),
      fs_(fs),
      catalog_(catalog),
      options_(std::move(options)),
      engine_(fs, catalog),
      imci_(options_.imci),
      exec_pool_(options_.exec_threads),
      query_tokens_(options_.exec_threads),
      repl_pool_(std::max(options_.replication.parse_parallelism,
                          options_.replication.apply_parallelism)),
      pipeline_(name_, fs, catalog, engine_.buffer_pool(), &imci_,
                &repl_pool_, options_.replication, &engine_) {}

RoNode::~RoNode() { StopReplication(); }

Status RoNode::Boot() {
  // Attach the row-store replica.
  std::vector<std::pair<TableId, PageId>> registry;
  IMCI_RETURN_NOT_OK(RowStoreEngine::LoadRegistry(fs_, &registry));
  for (const auto& [table_id, meta_page] : registry) {
    auto schema = catalog_->Get(table_id);
    if (!schema) return Status::Corruption("schema missing for table");
    IMCI_RETURN_NOT_OK(engine_.AttachTable(schema, meta_page));
    // Replica tables need local secondary indexes / row counts for the RO
    // row engine; rebuild them from the attached pages.
    IMCI_RETURN_NOT_OK(
        engine_.GetTable(table_id)->RebuildIndexesFromPages());
  }
  // Logical-apply nodes (the Fig. 11 binlog arm) tail the binlog from its
  // beginning over the base row-store state: binlog LSNs are a different
  // space from redo LSNs, so redo-anchored checkpoints don't apply to them.
  if (options_.replication.source == ApplySource::kLogicalBinlog) {
    boot_lsn_ = 0;
    boot_vid_ = 0;
    IMCI_RETURN_NOT_OK(RebuildFromRowStore());
    // Binlog recycling (Cluster::RecycleBinlog) truncates below the slowest
    // attached cursor. A fresh node's replay from LSN 0 would silently skip
    // the recycled transactions (LogStore::Read elides them), so bridge the
    // recycled prefix from the archive tier — and refuse to boot rather
    // than diverge when no archive covers it.
    const Lsn truncated = fs_->log("binlog")->truncated_lsn();
    if (truncated != 0) {
      ArchiveStore* arc = fs_->archive();
      if (arc == nullptr || !arc->Covers("binlog", 0, truncated)) {
        return Status::NotSupported(
            "binlog recycled below boot point and no archive covers the "
            "recycled prefix; logical-apply scale-out impossible");
      }
      IMCI_RETURN_NOT_OK(pipeline_.BootstrapFromArchive(truncated));
      boot_lsn_ = truncated;
      boot_vid_ = pipeline_.applied_vid();
    }
    RefreshStats();
    return Status::OK();
  }
  // Column indexes: fast recovery from checkpoint, else rebuild by scan.
  Vid csn = 0;
  Lsn start_lsn = 0;
  uint64_t ckpt_id = 0;
  std::string inflight;
  Status s = ImciCheckpoint::LoadLatest(fs_, *catalog_, &imci_, &csn,
                                        &start_lsn, &ckpt_id, &inflight);
  if (s.ok()) {
    boot_vid_ = csn;
    boot_lsn_ = start_lsn;
    // The checkpoint filter: transactions already folded into the loaded
    // state must not be re-applied should the replayed range re-read their
    // commit records.
    pipeline_.set_skip_vids_upto(csn);
    // Transactions in flight at checkpoint time: their CALS-shipped DMLs
    // precede start_lsn (and are unreplayable past the flushed page LSNs),
    // so the checkpoint carries the buffers themselves.
    IMCI_RETURN_NOT_OK(pipeline_.RestoreInflight(inflight));
  } else if (s.IsNotFound()) {
    IMCI_RETURN_NOT_OK(RwNode::ReadBaseLsn(fs_, &boot_lsn_));
    boot_vid_ = 0;
    IMCI_RETURN_NOT_OK(RebuildFromRowStore());
  } else {
    return s;
  }
  RefreshStats();
  return Status::OK();
}

Status RoNode::RebuildFromRowStore() {
  // §3.3: "issue a consistent read on the row store, scan the checkpoint,
  // and convert it to a column index". The bulk-loaded state is visible to
  // every read view (VID 0).
  for (const auto& schema : catalog_->All()) {
    RowTable* table = engine_.GetTable(schema->table_id());
    if (table == nullptr) continue;
    ColumnIndex* index = imci_.CreateIndex(schema);
    Status inner = Status::OK();
    IMCI_RETURN_NOT_OK(table->Scan([&](int64_t /*pk*/, const Row& row) {
      inner = index->Insert(row, 0);
      return inner.ok();
    }));
    IMCI_RETURN_NOT_OK(inner);
  }
  return Status::OK();
}

void RoNode::StartReplication() {
  if (replicating_.exchange(true)) return;
  // Restart from wherever we already advanced to (Boot or prior runs).
  const Lsn from = pipeline_.read_lsn() > boot_lsn_ ? pipeline_.read_lsn()
                                                    : boot_lsn_;
  const Vid vid = pipeline_.applied_vid() > boot_vid_ ? pipeline_.applied_vid()
                                                      : boot_vid_;
  pipeline_.Start(from, vid);
}

void RoNode::StopReplication() {
  if (!replicating_.exchange(false)) return;
  pipeline_.Stop();
}

Status RoNode::CatchUpNow() {
  // Catch up to the *durable* watermark, not the written tail: the pipeline
  // never consumes past it (the unfsynced tail is retractable), so waiting
  // on written LSNs would hang whenever a transaction's eagerly-shipped DML
  // records are still waiting for their first covering batch fsync.
  if (replicating_.load()) {
    // Background pipeline owns the cursor; just wait for it — but never
    // wait on a pipeline that can no longer make progress.
    while (pipeline_.read_lsn() < pipeline_.source_durable_lsn()) {
      if (pipeline_.wedged()) return pipeline_.wedge_reason();
      if (!replicating_.load()) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return Status::OK();
  }
  if (pipeline_.read_lsn() == 0 && pipeline_.applied_vid() == 0) {
    pipeline_.Start(boot_lsn_, boot_vid_);
    pipeline_.Stop();
  }
  return pipeline_.CatchUp(pipeline_.source_durable_lsn());
}

Status RoNode::WaitForVid(Vid vid, uint64_t timeout_us) const {
  const uint64_t start = NowMicros();
  while (applied_vid() < vid) {
    if (!healthy()) return Status::Busy("node unhealthy during catch-up");
    if (NowMicros() - start >= timeout_us) {
      return Status::Busy("snapshot catch-up timeout");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return Status::OK();
}

Status RoNode::ExecuteColumn(const LogicalRef& plan, std::vector<Row>* out,
                             int parallelism, int* dop_used) {
  // Register the applied point as this plan's read view (§6.4): the sample
  // happens under the registry mutex, so no maintenance pass can slip in
  // between reading the VID and registering it.
  SnapshotRegistry* snaps = engine_.snapshots();
  const Vid vid = snaps->Open(pipeline_.applied_vid_ref());
  Status status = RunColumnAt(plan, vid, parallelism, out, dop_used);
  snaps->Close(vid, pipeline_.applied_vid_ref());
  return status;
}

Status RoNode::RunColumnAt(const LogicalRef& plan, Vid read_vid,
                           int parallelism, std::vector<Row>* out,
                           int* dop_used) {
  // Degree of parallelism: an explicit caller request wins (bench sweeps,
  // tests, fragment requests); otherwise the optimizer sizes the fan-out to
  // the estimated scan volume. Either way the request is then clamped to
  // this query's token grant, so concurrent analytics queries share the
  // pool's workers instead of each oversubscribing it.
  const int desired =
      parallelism > 0
          ? parallelism
          : ChooseDop(plan, stats_, options_.default_parallelism);
  QueryTokenGrant grant(&query_tokens_, desired);
  if (dop_used != nullptr) *dop_used = grant.tokens();
  ExecContext ctx;
  ctx.pool = &exec_pool_;
  ctx.parallelism = grant.tokens();
  ctx.morsel_row_groups = options_.morsel_row_groups;
  ctx.read_vid = read_vid;
  PhysOpRef root;
  IMCI_RETURN_NOT_OK(LowerToColumnPlan(plan, &imci_, &root));
  return RunPlan(root, &ctx, out);
}

Status RoNode::ExecuteRow(const LogicalRef& plan, std::vector<Row>* out) {
  ExecContext ctx;
  ctx.pool = nullptr;  // the row engine executes single-threaded
  ctx.parallelism = 1;
  // Register the applied commit point for the whole plan, exactly as
  // ExecuteColumn does: every scan it contains sees one commit prefix, and
  // maintenance pruning cannot reclaim its versions until Close below.
  SnapshotRegistry* snaps = engine_.snapshots();
  const Vid vid = snaps->Open(pipeline_.applied_vid_ref());
  ctx.read_vid = vid;
  PhysOpRef root;
  Status status = LowerToRowPlan(plan, &engine_, &root);
  if (status.ok()) status = RunPlan(root, &ctx, out);
  snaps->Close(vid, pipeline_.applied_vid_ref());
  return status;
}

size_t RoNode::RecoverRowReplica() {
  const size_t undone = engine_.UndoInflight();
  if (undone > 0) RefreshStats();
  return undone;
}

Status RoNode::Execute(const LogicalRef& plan, std::vector<Row>* out,
                       EngineChoice* chosen) {
  if (options_.replication.source == ApplySource::kLogicalBinlog) {
    // The binlog carries no page changes, so this node's row replica is
    // fixed at the base state — only the column engine serves fresh data
    // on the strawman arm (one more cost REDO reuse doesn't pay: it keeps
    // both engines current from a single log).
    if (chosen) *chosen = EngineChoice::kColumnEngine;
    return ExecuteColumn(plan, out);
  }
  RoutingDecision d = RouteQuery(plan, stats_);
  if (chosen) *chosen = d.engine;
  if (d.engine == EngineChoice::kRowEngine) {
    Status s = ExecuteRow(plan, out);
    // Run-time fallback in the *other* direction is what the paper does for
    // column plans; symmetrical here: a row plan that fails (e.g. missing
    // index path) falls back to the column engine.
    if (s.ok()) return s;
  }
  return ExecuteColumn(plan, out);
}

void RoNode::RefreshStats() {
  stats_.Collect(imci_);
  stats_.CollectRowStore(engine_);
}

RoNode::Health RoNode::health() const {
  Health h;
  h.replicating = replicating_.load();
  h.wedged = pipeline_.wedged();
  if (h.wedged) h.wedge_reason = pipeline_.wedge_reason();
  h.apply_lag = pipeline_.LsnDelay();
  const uint64_t beat = pipeline_.heartbeat_us();
  const uint64_t now = NowMicros();
  h.heartbeat_age_us = (h.replicating && now > beat) ? now - beat : 0;
  return h;
}

}  // namespace imci
