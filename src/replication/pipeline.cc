#include "replication/pipeline.h"

#include <algorithm>
#include <map>
#include <set>

#include "archive/archive.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/fault.h"

namespace imci {

ReplicationPipeline::ReplicationPipeline(std::string node_name, PolarFs* fs,
                                         const Catalog* catalog,
                                         BufferPool* ro_pool, ImciStore* imci,
                                         ThreadPool* pool,
                                         ReplicationOptions options,
                                         RowStoreEngine* replica_engine)
    : node_name_(std::move(node_name)),
      fs_(fs),
      catalog_(catalog),
      ro_pool_(ro_pool),
      imci_(imci),
      pool_(pool),
      replica_engine_(replica_engine),
      options_(options),
      source_log_(fs->log(options.source == ApplySource::kRedoReuse
                              ? "redo"
                              : "binlog")),
      parser_(catalog, ro_pool, pool, options.parse_parallelism,
              replica_engine),
      reader_(fs->log("redo")),
      logical_(fs->log("binlog"), catalog) {}

ReplicationPipeline::~ReplicationPipeline() { Stop(); }

void ReplicationPipeline::Start(Lsn from_lsn, Vid start_vid) {
  read_lsn_.store(from_lsn, std::memory_order_release);
  applied_vid_.store(start_vid, std::memory_order_release);
  {
    std::lock_guard<std::mutex> g(health_mu_);
    wedge_reason_ = Status::OK();
  }
  wedged_.store(false, std::memory_order_release);
  heartbeat_us_.store(NowMicros(), std::memory_order_release);
  running_.store(true, std::memory_order_release);
  coordinator_ = std::thread([this] { CoordinatorLoop(); });
}

void ReplicationPipeline::Stop() {
  // No exchange guard: a wedged coordinator already cleared running_ on its
  // way out, and the thread must still be joined.
  running_.store(false, std::memory_order_release);
  if (coordinator_.joinable()) coordinator_.join();
}

namespace {
/// Worth retrying: the storage layer may heal (latency spike, transient
/// EIO, contention). Corruption is not — re-reading returns the same torn
/// bytes, so the pipeline wedges immediately instead of spinning on them.
bool IsTransient(const Status& s) { return s.IsIOError() || s.IsBusy(); }
}  // namespace

void ReplicationPipeline::CoordinatorLoop() {
  // Tag the thread for targeted fault injection: chaos tests wedge exactly
  // one node by arming a fault point with scope == this node's name.
  fault::ScopedContext scope(node_name_);
  int failures = 0;
  uint64_t backoff_us = options_.retry_backoff_us;
  while (running_.load(std::memory_order_acquire)) {
    heartbeat_us_.store(NowMicros(), std::memory_order_release);
    source_log_->WaitFor(read_lsn_.load(std::memory_order_acquire),
                         options_.poll_timeout_us);
    Status s = PollOnce();
    if (s.ok()) {
      failures = 0;
      backoff_us = options_.retry_backoff_us;
    } else if (IsTransient(s) && ++failures <= options_.max_transient_retries) {
      // Bounded retry with exponential backoff; PollOnce preserved whatever
      // partial progress it made, so the retry resumes past it.
      transient_retries_.fetch_add(1, std::memory_order_relaxed);
      YieldFor(backoff_us);
      backoff_us = std::min(backoff_us * 2, options_.retry_backoff_cap_us);
      continue;
    } else {
      Wedge(std::move(s));
      return;
    }
    const uint64_t ckpt = checkpoint_request_.exchange(0);
    if (ckpt != 0) {
      if (Status cs = TakeCheckpoint(ckpt); !cs.ok()) {
        // A failed checkpoint leaves replication healthy (the previous
        // checkpoint still anchors boots) but must stay visible.
        std::lock_guard<std::mutex> g(health_mu_);
        last_checkpoint_error_ = std::move(cs);
      }
    }
  }
}

void ReplicationPipeline::Wedge(Status reason) {
  {
    std::lock_guard<std::mutex> g(health_mu_);
    wedge_reason_ = std::move(reason);
  }
  wedged_.store(true, std::memory_order_release);
  // The coordinator exits right after; Stop() still joins the thread.
  running_.store(false, std::memory_order_release);
}

Status ReplicationPipeline::wedge_reason() const {
  std::lock_guard<std::mutex> g(health_mu_);
  return wedge_reason_;
}

Status ReplicationPipeline::last_checkpoint_error() const {
  std::lock_guard<std::mutex> g(health_mu_);
  return last_checkpoint_error_;
}

uint64_t ReplicationPipeline::LsnDelay() const {
  // Backlog is measured against the durable watermark, not the written
  // tail: the pipeline never consumes past it, so counting the
  // not-yet-fsynced tail would report "lag" no amount of applying can
  // clear (and could trip the health monitor's lag eviction on a node
  // that is fully caught up).
  const Lsn durable = source_log_->durable_lsn();
  const Lsn read = read_lsn_.load(std::memory_order_acquire);
  return durable > read ? durable - read : 0;
}

std::string ReplicationPipeline::SerializeInflight() const {
  // Layout: u32 ntxns, then per transaction: tid, first_lsn, pre_committed,
  // the buffered DMLs (rows encoded with the table's RowCodec; deletes have
  // an empty row), the pre-committed residue ops, and the committed
  // pre-images of the rows the transaction touched. The pre-images are what
  // lets a booting node gate the flushed pages' mid-transaction effects:
  // the checkpoint's pages carry this transaction's *after*-images, and the
  // replayed log starts past the records that wrote them, so the committed
  // state of those rows exists nowhere else.
  std::string out;
  PutFixed32(&out, static_cast<uint32_t>(txn_buffers_.size()));
  for (const auto& [tid, buf] : txn_buffers_) {
    PutFixed64(&out, buf->tid);
    PutFixed64(&out, buf->first_lsn);
    out.push_back(buf->pre_committed ? 1 : 0);
    PutFixed32(&out, static_cast<uint32_t>(buf->dmls.size()));
    for (const LogicalDml& dml : buf->dmls) {
      out.push_back(static_cast<char>(dml.op));
      PutFixed32(&out, dml.table_id);
      PutFixed64(&out, dml.lsn);
      PutFixed64(&out, static_cast<uint64_t>(dml.pk));
      std::string row;
      if (!dml.row.empty()) {
        auto schema = catalog_->Get(dml.table_id);
        if (schema) RowCodec::Encode(*schema, dml.row, &row);
      }
      PutFixed32(&out, static_cast<uint32_t>(row.size()));
      out.append(row);
    }
    PutFixed32(&out, static_cast<uint32_t>(buf->pre_ops.size()));
    for (const TxnBuffer::PreOp& op : buf->pre_ops) {
      out.push_back(op.is_delete ? 1 : 0);
      PutFixed32(&out, op.table_id);
      PutFixed64(&out, static_cast<uint64_t>(op.pk));
      PutFixed64(&out, op.rid);
    }
    std::set<std::pair<TableId, int64_t>> touched;
    for (const LogicalDml& dml : buf->dmls) {
      touched.emplace(dml.table_id, dml.pk);
    }
    for (const TxnBuffer::PreOp& op : buf->pre_ops) {
      touched.emplace(op.table_id, op.pk);
    }
    if (!MaintainsRowReplica()) {
      // No row replica to read pre-images from (or to gate at boot).
      PutFixed32(&out, 0);
      continue;
    }
    PutFixed32(&out, static_cast<uint32_t>(touched.size()));
    for (const auto& [table_id, pk] : touched) {
      PutFixed32(&out, table_id);
      PutFixed64(&out, static_cast<uint64_t>(pk));
      std::string image;
      RowTable* t = replica_engine_->GetTable(table_id);
      const bool has_pre = t != nullptr && t->CommittedImage(pk, &image);
      out.push_back(has_pre ? 1 : 0);
      PutFixed32(&out, static_cast<uint32_t>(image.size()));
      out.append(image);
    }
  }
  return out;
}

Status ReplicationPipeline::RestoreInflight(const std::string& blob) {
  if (blob.empty()) return Status::OK();
  size_t pos = 0;
  auto need = [&](size_t n) { return pos + n <= blob.size(); };
  if (!need(4)) return Status::Corruption("inflight header");
  const uint32_t ntxns = GetFixed32(blob.data());
  pos = 4;
  for (uint32_t t = 0; t < ntxns; ++t) {
    if (!need(8 + 8 + 1 + 4)) return Status::Corruption("inflight txn");
    auto buf = std::make_shared<TxnBuffer>();
    buf->tid = GetFixed64(blob.data() + pos);
    pos += 8;
    buf->first_lsn = GetFixed64(blob.data() + pos);
    pos += 8;
    buf->pre_committed = blob[pos++] != 0;
    const uint32_t ndmls = GetFixed32(blob.data() + pos);
    pos += 4;
    buf->dmls.reserve(ndmls);
    for (uint32_t i = 0; i < ndmls; ++i) {
      if (!need(1 + 4 + 8 + 8 + 4)) return Status::Corruption("inflight dml");
      LogicalDml dml;
      dml.op = static_cast<LogicalDml::Op>(blob[pos++]);
      dml.table_id = GetFixed32(blob.data() + pos);
      pos += 4;
      dml.lsn = GetFixed64(blob.data() + pos);
      pos += 8;
      dml.pk = static_cast<int64_t>(GetFixed64(blob.data() + pos));
      pos += 8;
      dml.tid = buf->tid;
      const uint32_t rowlen = GetFixed32(blob.data() + pos);
      pos += 4;
      if (!need(rowlen)) return Status::Corruption("inflight row");
      if (rowlen > 0) {
        auto schema = catalog_->Get(dml.table_id);
        if (!schema) return Status::Corruption("inflight table");
        IMCI_RETURN_NOT_OK(
            RowCodec::Decode(*schema, blob.data() + pos, rowlen, &dml.row));
      }
      pos += rowlen;
      buf->dmls.push_back(std::move(dml));
    }
    if (!need(4)) return Status::Corruption("inflight pre count");
    const uint32_t npre = GetFixed32(blob.data() + pos);
    pos += 4;
    buf->pre_ops.reserve(npre);
    for (uint32_t i = 0; i < npre; ++i) {
      if (!need(1 + 4 + 8 + 8)) return Status::Corruption("inflight pre op");
      TxnBuffer::PreOp op;
      op.is_delete = blob[pos++] != 0;
      op.table_id = GetFixed32(blob.data() + pos);
      pos += 4;
      op.pk = static_cast<int64_t>(GetFixed64(blob.data() + pos));
      pos += 8;
      op.rid = GetFixed64(blob.data() + pos);
      pos += 8;
      buf->pre_ops.push_back(op);
    }
    if (!need(4)) return Status::Corruption("inflight touched count");
    const uint32_t ntouched = GetFixed32(blob.data() + pos);
    pos += 4;
    for (uint32_t i = 0; i < ntouched; ++i) {
      if (!need(4 + 8 + 1 + 4)) return Status::Corruption("inflight touched");
      const TableId table_id = GetFixed32(blob.data() + pos);
      pos += 4;
      const int64_t pk = static_cast<int64_t>(GetFixed64(blob.data() + pos));
      pos += 8;
      const bool has_pre = blob[pos++] != 0;
      const uint32_t len = GetFixed32(blob.data() + pos);
      pos += 4;
      if (!need(len)) return Status::Corruption("inflight pre-image");
      if (MaintainsRowReplica()) {
        // Gate the flushed pages' mid-transaction effects: re-create the
        // transaction's version chain with the checkpoint-carried committed
        // pre-image as its base. Must run before replay starts — a later
        // DML on the same row would otherwise seed the chain base from the
        // dirty tree image.
        RowTable* t = replica_engine_->GetTable(table_id);
        if (t != nullptr) {
          t->InstallBootInflight(buf->tid, pk, has_pre,
                                 blob.substr(pos, len));
        }
      }
      pos += len;
    }
    txn_buffers_[buf->tid] = std::move(buf);
  }
  return pos == blob.size() ? Status::OK()
                            : Status::Corruption("inflight trailer");
}

Status ReplicationPipeline::PollOnce() {
  Status s = options_.source == ApplySource::kRedoReuse ? PollRedoOnce()
                                                        : PollLogicalOnce();
  if (!s.ok()) return s;
  if (++polls_since_maintenance_ >= options_.maintenance_interval) {
    polls_since_maintenance_ = 0;
    RunMaintenance();
  }
  return Status::OK();
}

Status ReplicationPipeline::PollLogicalOnce() {
  // The strawman's Phase#1: one binlog record == one committed transaction,
  // already in commit order, no commit-ahead buffering possible.
  const Lsn from = read_lsn_.load(std::memory_order_acquire);
  // Consume only the durable prefix (see PollRedoOnce).
  const Lsn durable = source_log_->durable_lsn();
  if (durable <= from) return Status::OK();
  std::vector<LogicalTxn> txns;
  Status read_error;
  const Lsn to = logical_.Poll(
      from,
      static_cast<size_t>(std::min<Lsn>(options_.chunk_records, durable - from)),
      &txns, &read_error);
  // Nothing consumed: surface the read failure (OK when merely idle).
  if (to == from) return read_error;
  std::vector<CommittedTxn> batch;
  batch.reserve(txns.size());
  for (LogicalTxn& lt : txns) {
    if (lt.vid <= skip_vids_upto_) continue;  // in the checkpoint
    CommittedTxn txn;
    txn.buffer = std::make_shared<TxnBuffer>();
    txn.buffer->tid = lt.tid;
    txn.buffer->dmls = std::move(lt.dmls);
    txn.vid = lt.vid;
    txn.commit_ts_us = lt.commit_ts_us;
    batch.push_back(std::move(txn));
  }
  if (!batch.empty()) ApplyBatch(batch);
  read_lsn_.store(to, std::memory_order_release);
  // A failure mid-scan: what was delivered is applied and the cursor kept,
  // so a retry resumes exactly past the progress made.
  return read_error;
}

Status ReplicationPipeline::PollRedoOnce() {
  const Lsn from = read_lsn_.load(std::memory_order_acquire);
  // Consume only the durable prefix of the source log. Written-but-unfsynced
  // records are retractable: a failed batch fsync trims them, and a replica
  // that already applied one would expose a commit the log no longer
  // contains — with its cursor parked over LSNs that post-reopen appends
  // reuse for different records. CALS still ships commit-ahead: a DML record
  // becomes consumable as soon as any batch fsync covers it, long before its
  // transaction decides.
  const Lsn durable = source_log_->durable_lsn();
  if (durable <= from) return Status::OK();
  std::vector<RedoRecord> records;
  Status read_error;
  const Lsn to =
      reader_.Read(from, std::min<Lsn>(from + options_.chunk_records, durable),
                   &records, &read_error);
  // Nothing consumed: surface the read failure (OK when merely idle).
  if (to == from) return read_error;

  // Phase#1: parallel physical replay + logical DML reconstruction.
  std::vector<LogicalDml> dmls;
  std::vector<RedoParser::Decision> decisions;
  IMCI_RETURN_NOT_OK(parser_.ParseChunk(records, &dmls, &decisions));

  // Deliver DMLs into per-transaction buffers (CALS: this happens without
  // waiting for the commit decision).
  DeliverDmls(std::move(dmls));

  // Turn decisions into a Phase#2 batch, in commit (LSN) order.
  std::vector<CommittedTxn> batch;
  if (!options_.commit_ahead && !delayed_.empty()) {
    // CALS-off emulation: transactions committed in the previous poll are
    // delivered now (ship-at-commit adds one propagation round).
    batch = std::move(delayed_);
    delayed_.clear();
  }
  std::vector<CommittedTxn> fresh;
  for (const RedoParser::Decision& d : decisions) {
    auto it = txn_buffers_.find(d.tid);
    std::shared_ptr<TxnBuffer> buf;
    if (it != txn_buffers_.end()) {
      buf = it->second;
      txn_buffers_.erase(it);
    } else {
      buf = std::make_shared<TxnBuffer>();
      buf->tid = d.tid;
    }
    if (!d.commit) {
      // Abort: free the buffer; pre-committed residue stays invisible and is
      // reclaimed by compaction (§5.5). The row replica's in-flight versions
      // go too — the compensation records (which precede the abort record in
      // the log, hence already applied) restored the pages.
      DropReplicaVersions(*buf);
      continue;
    }
    if (d.vid <= skip_vids_upto_) continue;  // in the checkpoint
    CommittedTxn txn;
    txn.buffer = std::move(buf);
    txn.vid = d.vid;
    txn.commit_ts_us = d.commit_ts_us;
    fresh.push_back(std::move(txn));
  }
  if (options_.commit_ahead) {
    for (auto& t : fresh) batch.push_back(std::move(t));
  } else {
    for (auto& t : fresh) delayed_.push_back(std::move(t));
  }
  if (!batch.empty()) ApplyBatch(batch);
  // Publish the consumed position only after the batch landed, so
  // "read_lsn >= X" implies everything committed at or before X is visible.
  read_lsn_.store(to, std::memory_order_release);
  // A failure mid-scan: what was delivered is applied and the cursor kept,
  // so a retry resumes exactly past the progress made.
  return read_error;
}

Status ReplicationPipeline::BootstrapFromArchive(Lsn upto) {
  if (options_.source != ApplySource::kLogicalBinlog) {
    return Status::NotSupported("archive bootstrap is a logical-apply path");
  }
  ArchiveStore* arc = fs_->archive();
  if (arc == nullptr) return Status::NotSupported("no archive tier");
  Lsn from = read_lsn_.load(std::memory_order_acquire);
  while (from < upto) {
    std::vector<std::string> raw;
    Lsn last = from;
    IMCI_RETURN_NOT_OK(
        arc->ReadRecords("binlog", from,
                         std::min<Lsn>(upto, from + options_.chunk_records),
                         &raw, &last));
    if (last == from) {
      return Status::Corruption("archived binlog ends at lsn " +
                                std::to_string(from) + ", need " +
                                std::to_string(upto));
    }
    std::vector<LogicalTxn> txns;
    logical_.DecodeRaw(from + 1, raw, &txns);
    std::vector<CommittedTxn> batch;
    batch.reserve(txns.size());
    for (LogicalTxn& lt : txns) {
      if (lt.vid <= skip_vids_upto_) continue;
      CommittedTxn txn;
      txn.buffer = std::make_shared<TxnBuffer>();
      txn.buffer->tid = lt.tid;
      txn.buffer->dmls = std::move(lt.dmls);
      txn.vid = lt.vid;
      txn.commit_ts_us = lt.commit_ts_us;
      batch.push_back(std::move(txn));
    }
    if (!batch.empty()) ApplyBatch(batch);
    read_lsn_.store(last, std::memory_order_release);
    from = last;
  }
  return Status::OK();
}

Status ReplicationPipeline::CatchUp(Lsn target_lsn) {
  while (read_lsn_.load(std::memory_order_acquire) < target_lsn) {
    IMCI_RETURN_NOT_OK(PollOnce());
  }
  return Status::OK();
}

void ReplicationPipeline::DeliverDmls(std::vector<LogicalDml>&& dmls) {
  for (LogicalDml& dml : dmls) {
    auto& buf = txn_buffers_[dml.tid];
    if (!buf) {
      buf = std::make_shared<TxnBuffer>();
      buf->tid = dml.tid;
    }
    if (buf->first_lsn == 0) buf->first_lsn = dml.lsn;
    buf->dmls.push_back(std::move(dml));
    MaybePreCommit(buf);
  }
}

void ReplicationPipeline::MaybePreCommit(
    const std::shared_ptr<TxnBuffer>& buf) {
  if (buf->dmls.size() < options_.large_txn_dml_threshold) return;
  // §5.5: write the buffered updates into Partial Packs with invalid VIDs
  // (invisible), remember only (pk, rid) residue, and free the DML memory.
  for (const LogicalDml& dml : buf->dmls) {
    ColumnIndex* index = imci_->GetIndex(dml.table_id);
    if (index == nullptr) continue;
    switch (dml.op) {
      case LogicalDml::Op::kInsert: {
        const Rid rid = index->PreAllocate(1);
        // In-memory pre-write into a just-allocated rid cannot fail; the
        // rectify at commit re-validates the row anyway.
        (void)index->PreWrite(rid, dml.row);
        buf->pre_ops.push_back({false, dml.table_id, dml.pk, rid});
        break;
      }
      case LogicalDml::Op::kDelete:
        buf->pre_ops.push_back({true, dml.table_id, dml.pk, kInvalidRid});
        break;
      case LogicalDml::Op::kUpdate: {
        buf->pre_ops.push_back({true, dml.table_id, dml.pk, kInvalidRid});
        const Rid rid = index->PreAllocate(1);
        (void)index->PreWrite(rid, dml.row);
        buf->pre_ops.push_back({false, dml.table_id, dml.pk, rid});
        break;
      }
    }
  }
  buf->dmls.clear();
  buf->dmls.shrink_to_fit();
  if (!buf->pre_committed) {
    buf->pre_committed = true;
    precommitted_txns_.fetch_add(1, std::memory_order_relaxed);
  }
}

namespace {
/// The rows a transaction buffer touched, grouped by table (pre-committed
/// large transactions keep their rows in pre_ops after the DML memory is
/// freed; both sources are walked).
std::map<TableId, std::vector<int64_t>> PksByTable(const TxnBuffer& buf) {
  std::map<TableId, std::vector<int64_t>> by_table;
  for (const LogicalDml& dml : buf.dmls) {
    by_table[dml.table_id].push_back(dml.pk);
  }
  for (const TxnBuffer::PreOp& op : buf.pre_ops) {
    by_table[op.table_id].push_back(op.pk);
  }
  return by_table;
}
}  // namespace

void ReplicationPipeline::StampReplicaVersions(const TxnBuffer& buf,
                                               Vid vid) {
  if (!MaintainsRowReplica()) return;
  // Trim opportunistically like the RW commit path: the registry hint is
  // only ever stale-low (every reader registers at or above it), which
  // merely trims less.
  const Vid trim =
      std::min(replica_engine_->snapshots()->hint(), vid - 1);
  for (const auto& [table_id, pks] : PksByTable(buf)) {
    RowTable* t = replica_engine_->GetTable(table_id);
    if (t != nullptr) t->StampVersions(buf.tid, vid, pks, trim);
  }
}

void ReplicationPipeline::DropReplicaVersions(const TxnBuffer& buf) {
  if (!MaintainsRowReplica()) return;
  for (const auto& [table_id, pks] : PksByTable(buf)) {
    RowTable* t = replica_engine_->GetTable(table_id);
    if (t != nullptr) t->AbortVersions(buf.tid, pks);
  }
}

void ReplicationPipeline::ApplyBatch(std::vector<CommittedTxn>& batch) {
  // Commit decision for the row replica first: stamp every transaction's
  // in-flight versions with its commit VID *before* applied_vid_ advances
  // below, so a row-engine reader pinned at the new applied point always
  // resolves the batch's transactions as committed — and one pinned below
  // it still cannot see them (all-or-nothing at every snapshot).
  for (const CommittedTxn& txn : batch) {
    StampReplicaVersions(*txn.buffer, txn.vid);
  }
  // Phase#2 (§5.4): row-grained conflict-free dispatch. Transactions are
  // walked in commit order; every op lands on Hash(table, PK) mod N, so all
  // modifications of one row hit the same worker in commit order.
  const int n = std::max(1, options_.apply_parallelism);
  std::vector<std::vector<ApplyOp>> shards(n);
  auto shard_for = [&](TableId t, int64_t pk) -> std::vector<ApplyOp>& {
    return shards[Hash64((static_cast<uint64_t>(t) << 48) ^
                         static_cast<uint64_t>(pk)) %
                  n];
  };
  for (CommittedTxn& txn : batch) {
    TxnBuffer* buf = txn.buffer.get();
    for (const TxnBuffer::PreOp& op : buf->pre_ops) {
      ApplyOp a;
      a.kind = op.is_delete ? ApplyOp::Kind::kDelete : ApplyOp::Kind::kRectify;
      a.table_id = op.table_id;
      a.pk = op.pk;
      a.rid = op.rid;
      a.vid = txn.vid;
      shard_for(op.table_id, op.pk).push_back(std::move(a));
    }
    for (LogicalDml& dml : buf->dmls) {
      ApplyOp a;
      switch (dml.op) {
        case LogicalDml::Op::kInsert: a.kind = ApplyOp::Kind::kInsert; break;
        case LogicalDml::Op::kDelete: a.kind = ApplyOp::Kind::kDelete; break;
        case LogicalDml::Op::kUpdate: a.kind = ApplyOp::Kind::kUpdate; break;
      }
      a.table_id = dml.table_id;
      a.pk = dml.pk;
      a.vid = txn.vid;
      a.row = std::move(dml.row);
      shard_for(dml.table_id, dml.pk).push_back(std::move(a));
    }
  }
  uint64_t ops = 0;
  for (auto& s : shards) ops += s.size();
  ParallelFor(pool_, n, [&](int w) {
    for (ApplyOp& op : shards[w]) {
      ColumnIndex* index = imci_->GetIndex(op.table_id);
      if (index == nullptr) continue;
      // Phase#2 ops mutate in-memory column state only (no storage I/O to
      // fault); a NotFound from Delete/Update is the replay-vs-checkpoint
      // overlap case and is tolerated by design.
      switch (op.kind) {
        case ApplyOp::Kind::kInsert:
          (void)index->Insert(op.row, op.vid);
          break;
        case ApplyOp::Kind::kDelete:
          (void)index->Delete(op.pk, op.vid);
          break;
        case ApplyOp::Kind::kUpdate:
          (void)index->Update(op.row, op.vid);
          break;
        case ApplyOp::Kind::kRectify:
          (void)index->RectifyInsert(op.rid, op.pk, op.vid);
          break;
      }
    }
  });
  applied_ops_.fetch_add(ops, std::memory_order_relaxed);
  const CommittedTxn& last = batch.back();
  // Compaction (§4.3) commits at this batch's VID, before it is published:
  // no reader can be scanning at that VID yet, and readers below it keep
  // the old versions. At the already-published VID, a scan running at it
  // could count a moved row twice or miss it.
  if (compaction_due_) {
    compaction_due_ = false;
    for (ColumnIndex* index : imci_->All()) {
      for (size_t gid : index->FindUnderflowGroups(last.vid)) {
        uint32_t moved = 0;
        if (index->CompactGroup(gid, last.vid, &moved).ok()) {
          compactions_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  }
  // Batch commit: advance the node's read view only after every op of every
  // transaction in the batch landed, so readers see transactions atomically.
  applied_vid_.store(last.vid, std::memory_order_release);
  committed_txns_.fetch_add(batch.size(), std::memory_order_relaxed);
  const uint64_t now = NowMicros();
  for (const CommittedTxn& txn : batch) {
    if (txn.commit_ts_us != 0 && now > txn.commit_ts_us) {
      vd_.Record(now - txn.commit_ts_us);
    }
  }
}

void ReplicationPipeline::RunMaintenance() {
  compaction_due_ = options_.enable_compaction;
  // One bound for the whole pass: the node's snapshot registry admits no
  // read view (row plan, column plan or fragment) below it, so nothing
  // pruned, dropped or reclaimed under it can still be read.
  const Vid wm = replica_engine_->snapshots()->Watermark(applied_vid_);
  if (MaintainsRowReplica()) {
    for (RowTable* t : replica_engine_->AllTables()) t->PruneVersions(wm);
  }
  for (ColumnIndex* index : imci_->All()) {
    index->DropInsertVidMaps(wm);
    index->ReclaimRetired(wm);
  }
}

Status ReplicationPipeline::TakeCheckpoint(uint64_t ckpt_id) {
  // Quiesced at a batch boundary: applied state == applied_vid exactly.
  // The page flush below stamps replica pages with LSNs up to read_lsn, so
  // a booting node cannot re-reconstruct DMLs from records at or below it
  // (the parser's page-LSN skip) — in-flight transactions' buffered DMLs
  // must travel with the checkpoint instead, and replay starts at read_lsn.
  IMCI_RETURN_NOT_OK(ro_pool_->FlushAllResident());
  const Vid csn = applied_vid_.load(std::memory_order_acquire);
  // The manifest's start_lsn is read back in *redo* LSN space (redo-reuse
  // boots replay from it; Cluster::RecycleRedoLog truncates below it). A
  // logical-binlog pipeline's cursor lives in binlog LSN space, so writing
  // it here would truncate/replay the redo log at a position from the wrong
  // space — record 0 instead (replay-from-base, recycle-nothing), until the
  // binlog arm gets its own checkpoint anchor (ROADMAP).
  const Lsn start_lsn = options_.source == ApplySource::kRedoReuse
                            ? read_lsn_.load(std::memory_order_acquire)
                            : 0;
  IMCI_RETURN_NOT_OK(ImciCheckpoint::WriteSnapshot(
      *imci_, csn, start_lsn, fs_, ckpt_id, SerializeInflight()));
  // Register the checkpoint as a PITR restore anchor: the pages just
  // flushed + this checkpoint directory are exactly the state replay from
  // start_lsn resumes from (Cluster::RestoreToLsn).
  if (ArchiveStore* arc = fs_->archive()) {
    IMCI_RETURN_NOT_OK(
        arc->snapshots()->Register(ckpt_id, csn, start_lsn));
  }
  return Status::OK();
}

void ReplicationPipeline::RequestCheckpoint(uint64_t ckpt_id) {
  checkpoint_request_.store(ckpt_id, std::memory_order_release);
}

}  // namespace imci
