#include "rowstore/engine.h"

#include <algorithm>

#include "common/clock.h"
#include "common/coding.h"

namespace imci {

RowStoreEngine::RowStoreEngine(PolarFs* fs, Catalog* catalog)
    : fs_(fs), catalog_(catalog), pool_(fs) {}

Status RowStoreEngine::CreateTable(std::shared_ptr<const Schema> schema) {
  catalog_->Register(schema);
  PageId meta_id = page_alloc_.fetch_add(1) + 1;
  auto table =
      std::make_unique<RowTable>(schema, &pool_, &page_alloc_, meta_id);
  IMCI_RETURN_NOT_OK(table->CreateEmpty());
  std::lock_guard<std::mutex> g(mu_);
  tables_[schema->table_id()] = std::move(table);
  return Status::OK();
}

Status RowStoreEngine::AttachTable(std::shared_ptr<const Schema> schema,
                                   PageId meta_page_id) {
  catalog_->Register(schema);
  auto table =
      std::make_unique<RowTable>(schema, &pool_, &page_alloc_, meta_page_id);
  // Make sure the local page allocator never collides with RW-allocated ids:
  // RO-side allocation is unused, but keep it safely high.
  PageId cur = page_alloc_.load();
  if (meta_page_id + (1ull << 20) > cur) {
    page_alloc_.store(meta_page_id + (1ull << 20));
  }
  std::lock_guard<std::mutex> g(mu_);
  tables_[schema->table_id()] = std::move(table);
  return Status::OK();
}

RowTable* RowStoreEngine::GetTable(TableId id) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = tables_.find(id);
  return it == tables_.end() ? nullptr : it->second.get();
}

const RowTable* RowStoreEngine::GetTable(TableId id) const {
  std::lock_guard<std::mutex> g(mu_);
  auto it = tables_.find(id);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<RowTable*> RowStoreEngine::AllTables() {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<RowTable*> out;
  out.reserve(tables_.size());
  for (auto& [id, table] : tables_) out.push_back(table.get());
  return out;
}

Status RowStoreEngine::CheckpointPages() {
  IMCI_RETURN_NOT_OK(pool_.FlushAll());
  std::string registry;
  {
    std::lock_guard<std::mutex> g(mu_);
    PutFixed32(&registry, static_cast<uint32_t>(tables_.size()));
    for (auto& [id, table] : tables_) {
      PutFixed32(&registry, id);
      PutFixed64(&registry, table->meta_page_id());
    }
  }
  return fs_->WriteFile("rowstore/registry", std::move(registry));
}

size_t RowStoreEngine::UndoInflight() {
  size_t undone = 0;
  for (RowTable* table : AllTables()) undone += table->RollbackInflight();
  return undone;
}

MvccStats RowStoreEngine::MvccStatsSnapshot() const {
  std::vector<const RowTable*> tables;
  {
    std::lock_guard<std::mutex> g(mu_);
    tables.reserve(tables_.size());
    for (const auto& [id, table] : tables_) tables.push_back(table.get());
  }
  MvccStats total;
  for (const RowTable* table : tables) total.Add(table->MvccStatsSnapshot());
  return total;
}

Status RowStoreEngine::LoadRegistry(
    PolarFs* fs, std::vector<std::pair<TableId, PageId>>* entries) {
  std::string data;
  IMCI_RETURN_NOT_OK(fs->ReadFile("rowstore/registry", &data));
  if (data.size() < 4) return Status::Corruption("registry");
  uint32_t n = GetFixed32(data.data());
  size_t pos = 4;
  for (uint32_t i = 0; i < n; ++i) {
    if (pos + 12 > data.size()) return Status::Corruption("registry entry");
    TableId id = GetFixed32(data.data() + pos);
    PageId meta = GetFixed64(data.data() + pos + 4);
    entries->emplace_back(id, meta);
    pos += 12;
  }
  return Status::OK();
}

TransactionManager::TransactionManager(RowStoreEngine* engine,
                                       RedoWriter* redo, LockManager* locks,
                                       BinlogWriter* binlog)
    : engine_(engine), redo_(redo), locks_(locks), binlog_(binlog) {}

void TransactionManager::Begin(Transaction* txn) {
  *txn = Transaction();
  txn->tid_ = next_tid_.fetch_add(1) + 1;
}

RowTable::RedoShipFn TransactionManager::MakeShip(Transaction* txn) {
  // Stamps the user-DML records with the transaction id (SMO records keep
  // TID 0 — system) and ships them immediately, non-durably: the eager
  // append CALS depends on (§5.1). The table invokes this while holding its
  // write latch so that log order always equals page-modification order —
  // the prerequisite of Phase#1's per-page in-order replay.
  return [this, txn](std::vector<RedoRecord>* redo) {
    std::vector<RedoRecord*> ptrs;
    ptrs.reserve(redo->size());
    for (RedoRecord& r : *redo) {
      if (r.type != RedoType::kSmo) {
        r.tid = txn->tid_;
        r.prev_lsn = txn->last_lsn_;
      }
      ptrs.push_back(&r);
    }
    txn->last_lsn_ = redo_->Append(std::move(ptrs), /*durable=*/false);
    if (txn->last_lsn_ == 0) {
      // The log refused the records, but the page change they describe is
      // already in the tree: pages are now ahead of the log, and physical
      // replay cannot skip a record (an unlogged split would orphan every
      // later record on its new page). Poison the log while the table latch
      // still holds back the next writer, so no later record lands on top
      // of the gap; this transaction's commit record is refused with it.
      redo_->PoisonToDurable();
    }
    txn->dml_count_++;
  };
}

Status TransactionManager::Insert(Transaction* txn, TableId table,
                                  const Row& row) {
  RowTable* t = engine_->GetTable(table);
  if (t == nullptr) return Status::NotFound("table");
  const int64_t pk = AsInt(row[t->schema().pk_col()]);
  IMCI_RETURN_NOT_OK(locks_->Lock(txn->tid_, table, pk));
  txn->locks_.emplace_back(table, pk);
  std::vector<RedoRecord> redo;
  IMCI_RETURN_NOT_OK(t->Insert(row, &redo, MakeShip(txn), txn->tid_));
  txn->undo_.push_back({UndoEntry::Op::kInsert, table, pk, {}});
  if (binlog_enabled_ && binlog_ != nullptr) {
    std::string image;
    RowCodec::Encode(t->schema(), row, &image);
    txn->binlog_events_.push_back(
        {BinlogWriter::Event::Op::kInsert, table, pk, std::move(image)});
  }
  return Status::OK();
}

Status TransactionManager::Update(Transaction* txn, TableId table, int64_t pk,
                                  const Row& row) {
  RowTable* t = engine_->GetTable(table);
  if (t == nullptr) return Status::NotFound("table");
  IMCI_RETURN_NOT_OK(locks_->Lock(txn->tid_, table, pk));
  txn->locks_.emplace_back(table, pk);
  std::vector<RedoRecord> redo;
  Row old_row;
  IMCI_RETURN_NOT_OK(
      t->Update(pk, row, &old_row, &redo, MakeShip(txn), txn->tid_));
  std::string old_image;
  RowCodec::Encode(t->schema(), old_row, &old_image);
  txn->undo_.push_back(
      {UndoEntry::Op::kUpdate, table, pk, std::move(old_image)});
  if (binlog_enabled_ && binlog_ != nullptr) {
    std::string image;
    RowCodec::Encode(t->schema(), row, &image);
    txn->binlog_events_.push_back(
        {BinlogWriter::Event::Op::kUpdate, table, pk, std::move(image)});
  }
  return Status::OK();
}

Status TransactionManager::Delete(Transaction* txn, TableId table,
                                  int64_t pk) {
  RowTable* t = engine_->GetTable(table);
  if (t == nullptr) return Status::NotFound("table");
  IMCI_RETURN_NOT_OK(locks_->Lock(txn->tid_, table, pk));
  txn->locks_.emplace_back(table, pk);
  std::vector<RedoRecord> redo;
  Row old_row;
  IMCI_RETURN_NOT_OK(t->Delete(pk, &old_row, &redo, MakeShip(txn), txn->tid_));
  std::string old_image;
  RowCodec::Encode(t->schema(), old_row, &old_image);
  txn->undo_.push_back(
      {UndoEntry::Op::kDelete, table, pk, std::move(old_image)});
  if (binlog_enabled_ && binlog_ != nullptr) {
    txn->binlog_events_.push_back(
        {BinlogWriter::Event::Op::kDelete, table, pk, {}});
  }
  return Status::OK();
}

Status TransactionManager::GetForUpdate(Transaction* txn, TableId table,
                                        int64_t pk, Row* row) {
  RowTable* t = engine_->GetTable(table);
  if (t == nullptr) return Status::NotFound("table");
  IMCI_RETURN_NOT_OK(locks_->Lock(txn->tid_, table, pk));
  txn->locks_.emplace_back(table, pk);
  return t->Get(pk, row);
}

Status TransactionManager::Get(TableId table, int64_t pk, Row* row) {
  const RowTable* t = engine_->GetTable(table);
  if (t == nullptr) return Status::NotFound("table");
  // Single-statement read: the snapshot is sampled under the table latch
  // (SnapshotGetCurrent), so no live-view registration is needed — point
  // reads skip the SnapshotRegistry mutex entirely.
  return t->SnapshotGetCurrent(snapshot_vid_, pk, row);
}

ReadView TransactionManager::OpenReadView() {
  // The engine's shared registry samples the published point under its own
  // mutex, so a concurrent watermark computation can never exceed the view
  // we are registering.
  return ReadView(this, engine_->snapshots()->Open(snapshot_vid_));
}

void TransactionManager::CloseReadView(Vid vid) {
  engine_->snapshots()->Close(vid, snapshot_vid_);
}

void ReadView::Close() {
  if (mgr_ != nullptr) {
    mgr_->CloseReadView(vid_);
    mgr_ = nullptr;
  }
}

Vid TransactionManager::PruneWatermark() const {
  return engine_->snapshots()->Watermark(snapshot_vid_);
}

Status TransactionManager::Get(const ReadView& view, TableId table, int64_t pk,
                               Row* row) {
  const RowTable* t = engine_->GetTable(table);
  if (t == nullptr) return Status::NotFound("table");
  return t->SnapshotGet(view.vid(), pk, row);
}

Status TransactionManager::Scan(
    const ReadView& view, TableId table,
    const std::function<bool(int64_t, const Row&)>& fn) {
  const RowTable* t = engine_->GetTable(table);
  if (t == nullptr) return Status::NotFound("table");
  return t->SnapshotScan(view.vid(), fn);
}

Status TransactionManager::ScanRange(
    const ReadView& view, TableId table, int64_t lo, int64_t hi,
    const std::function<bool(int64_t, const Row&)>& fn) {
  const RowTable* t = engine_->GetTable(table);
  if (t == nullptr) return Status::NotFound("table");
  return t->SnapshotScanRange(view.vid(), lo, hi, fn);
}

Status TransactionManager::IndexLookup(const ReadView& view, TableId table,
                                       int col, int64_t key,
                                       std::vector<int64_t>* pks) {
  const RowTable* t = engine_->GetTable(table);
  if (t == nullptr) return Status::NotFound("table");
  return t->SnapshotIndexLookup(view.vid(), col, key, pks);
}

void TransactionManager::StampCommitLocked(Transaction* txn, Vid trim_hint) {
  if (txn->undo_.empty()) return;
  // The chains only need versions a snapshot can still read: trim below the
  // oldest live view (or just below this commit when nothing older is
  // pinned) while stamping, so hot rows don't accumulate history between
  // checkpoints. `trim_hint` was computed *before* commit_mu_ was taken —
  // it can only be stale-low (new views open at or above the published
  // point), which merely trims less; computing it here would drag the
  // reader-hammered SnapshotRegistry mutex into the global commit section.
  const Vid trim = std::min(trim_hint, txn->commit_vid_ - 1);
  std::map<TableId, std::vector<int64_t>> by_table;
  for (const UndoEntry& u : txn->undo_) {
    by_table[u.table_id].push_back(u.pk);
  }
  for (auto& [table_id, pks] : by_table) {
    RowTable* t = engine_->GetTable(table_id);
    if (t != nullptr) t->StampVersions(txn->tid_, txn->commit_vid_, pks, trim);
  }
}

void TransactionManager::PublishDurable() {
  if (pub_pending_.load(std::memory_order_acquire) == 0) return;
  const Lsn durable = redo_->durable_lsn();
  std::lock_guard<std::mutex> g(pub_mu_);
  Vid publish = 0;
  while (!pub_queue_.empty() && pub_queue_.front().second <= durable) {
    publish = pub_queue_.front().first;
    pub_queue_.pop_front();
    pub_pending_.fetch_sub(1, std::memory_order_release);
  }
  // The queue is VID-ascending and snapshot_vid_ is only advanced under
  // pub_mu_ in kDurable mode, so the store stays monotone; the compare
  // guards the mixed history left by a mode flip.
  if (publish > snapshot_vid_.load(std::memory_order_relaxed)) {
    snapshot_vid_.store(publish, std::memory_order_release);
  }
}

void TransactionManager::DropLostPublications() {
  if (pub_pending_.load(std::memory_order_acquire) == 0) return;
  // A failed batch fsync poisons the log: durable_lsn() is stuck at the
  // pre-batch watermark and further appends are refused until reopen, so
  // the watermark cannot race past a trimmed LSN while we drop. Every
  // committer in the failed batch calls this before surfacing its error —
  // the queue is clean before any reopen can append new records onto the
  // trimmed LSN range.
  const Lsn durable = redo_->durable_lsn();
  std::lock_guard<std::mutex> g(pub_mu_);
  while (!pub_queue_.empty() && pub_queue_.back().second > durable) {
    pub_queue_.pop_back();
    pub_pending_.fetch_sub(1, std::memory_order_release);
  }
}

void TransactionManager::RetractLostCommit(Transaction* txn) {
  if (txn->undo_.empty()) return;
  // Physical undo in reverse order, exactly like Rollback — but with no
  // compensation shipping: the poisoned log refuses appends, and the
  // records being compensated were themselves trimmed, so recovery never
  // replays them. Best-effort per image (a row already at its pre-image
  // reports NotFound/Busy; the retract below is what makes the loss
  // logically complete).
  for (auto it = txn->undo_.rbegin(); it != txn->undo_.rend(); ++it) {
    RowTable* t = engine_->GetTable(it->table_id);
    if (t == nullptr) continue;
    std::vector<RedoRecord> comp;
    switch (it->op) {
      case UndoEntry::Op::kInsert:
        (void)t->DeleteImage(it->pk, &comp);
        break;
      case UndoEntry::Op::kUpdate:
        (void)t->UpdateImage(it->pk, it->old_image, &comp);
        break;
      case UndoEntry::Op::kDelete:
        (void)t->InsertImage(it->pk, it->old_image, &comp);
        break;
    }
  }
  std::map<TableId, std::vector<int64_t>> by_table;
  for (const UndoEntry& u : txn->undo_) by_table[u.table_id].push_back(u.pk);
  for (auto& [table_id, pks] : by_table) {
    RowTable* t = engine_->GetTable(table_id);
    if (t != nullptr) t->RetractVersions(txn->commit_vid_, pks);
  }
}

Status TransactionManager::Commit(Transaction* txn) {
  if (txn->finished_) return Status::InvalidArgument("finished txn");
  txn->finished_ = true;
  RedoRecord commit;
  commit.type = RedoType::kCommit;
  commit.tid = txn->tid_;
  commit.prev_lsn = txn->last_lsn_;
  Lsn commit_lsn = 0;
  Lsn binlog_lsn = 0;
  Status enqueue_status;
  const Vid trim_hint =
      txn->undo_.empty() ? 0 : engine_->snapshots()->hint();
  {
    // Short critical section: VID assignment and the commit-record
    // *enqueue* happen under one mutex so that commit-VID order equals
    // commit-record LSN order — the property Phase#2 relies on when
    // replaying transactions in commit order (§5.4). The append is
    // write-through but non-durable; the fsync wait happens below, outside
    // the mutex, so concurrent commits form one group-commit batch instead
    // of serializing a flush each.
    std::lock_guard<std::mutex> g(commit_mu_);
    txn->commit_vid_ = next_vid_.fetch_add(1) + 1;
    commit.commit_vid = txn->commit_vid_;
    commit.commit_ts_us = NowMicros();
    commit_lsn = redo_->AppendOne(&commit, /*durable=*/false, &enqueue_status);
    txn->commit_lsn_ = commit_lsn;
    if (commit_lsn != 0 && binlog_enabled_ && binlog_ != nullptr) {
      // MySQL's ordered group commit serializes the binlog *write* with the
      // engine commit (XA between binlog and redo). The strawman's extra
      // flush still sits on the commit path — the perturbation Fig. 11
      // measures — but, like the redo flush, it is now paid once per batch.
      binlog_lsn = binlog_->EnqueueTxn(txn->tid_, txn->commit_vid_,
                                       commit.commit_ts_us,
                                       txn->binlog_events_, &enqueue_status);
    }
    if (!enqueue_status.ok()) {
      // A poisoned/faulted log refused the commit record: nothing is
      // stamped or published, the transaction fails cleanly. (A binlog
      // enqueue failure can strand an already-appended redo commit record
      // — the same window a crash between the two writes opens in MySQL
      // without XA; the poison trim erases it before any recovery replays.)
      ReleaseLocks(txn);
      return enqueue_status;
    }
    // Stamp this transaction's row versions with its commit VID, then
    // publish the VID as the new snapshot point — in that order, so a
    // reader whose snapshot covers this commit always finds it stamped.
    // Both happen under commit_mu_, keeping the published point monotone in
    // VID (≡ LSN) order.
    //
    // Visibility policy (see TransactionManager::Visibility):
    //
    // - kCommitPoint (default, the paper's freshness stance): publish now.
    //   A snapshot taken after this store can observe the transaction
    //   before its group-commit fsync lands; a crash in that window erases
    //   state a reader may have acted on. Strictly stronger than the
    //   pre-MVCC unlocked read (which exposed uncommitted data), and
    //   conflicting *writers* are safe either way — locks are held to
    //   durability.
    // - kDurable: queue (vid, lsn) instead; the snapshot point advances in
    //   PublishDurable() once the group-commit watermark covers the commit
    //   record. Freshness now tracks fsync batch latency.
    StampCommitLocked(txn, trim_hint);
    if (visibility_.load(std::memory_order_relaxed) ==
        Visibility::kCommitPoint) {
      snapshot_vid_.store(txn->commit_vid_, std::memory_order_release);
    } else {
      std::lock_guard<std::mutex> pg(pub_mu_);
      pub_queue_.emplace_back(txn->commit_vid_, commit_lsn);
      pub_pending_.fetch_add(1, std::memory_order_release);
    }
  }
  // Group commit: block until a leader's batch fsync covers the commit
  // record (and, in binlog mode, the logical record). Locks are released
  // only after durability so no other transaction builds on a commit that
  // could still be lost.
  Status sync_status = redo_->SyncTo(commit_lsn);
  if (sync_status.ok() && binlog_lsn != 0) {
    sync_status = binlog_->SyncTo(binlog_lsn);
  }
  if (!sync_status.ok()) {
    // The batch fsync failed: the commit is NOT durable and the log is
    // poisoned (its un-fsynced tail — this commit record included — is
    // already trimmed). In kCommitPoint mode the commit point was already
    // published in-memory, but the store refuses further commits until
    // re-opened, so recovery lands at the pre-batch watermark with nothing
    // built on the lost tail. In kDurable mode the queued publications the
    // trim orphaned are dropped — the lost commits never become
    // reader-visible at all — and the stamped row versions are retracted
    // under the still-held locks: without the retract, a later commit
    // publishing a higher VID (possible once the log reopens) would expose
    // this commit's stamped versions even though its record is gone. The
    // retract is gated on the *redo* watermark: when the redo fsync landed
    // and only the binlog flush failed, the commit is durable-but-ambiguous
    // — it stays queued and publishes once a later batch advances the
    // watermark past it, which recovery agrees with.
    if (visibility_.load(std::memory_order_relaxed) == Visibility::kDurable &&
        txn->commit_lsn_ > redo_->durable_lsn()) {
      RetractLostCommit(txn);
    }
    DropLostPublications();
    ReleaseLocks(txn);
    return sync_status;
  }
  ReleaseLocks(txn);
  PublishDurable();
  commits_.fetch_add(1, std::memory_order_relaxed);
  // Opportunistic trim-hint refresh, off the critical path: a write-only
  // workload never opens read views, so CloseReadView alone would leave the
  // hint pinned low and chains would only shrink at checkpoints. try_lock
  // inside — losing the race to readers just means the next commit
  // refreshes it.
  engine_->snapshots()->TryRefresh(snapshot_vid_);
  return Status::OK();
}

Status TransactionManager::Rollback(Transaction* txn) {
  if (txn->finished_) return Status::InvalidArgument("finished txn");
  txn->finished_ = true;
  // Undo in reverse order, emitting compensating *system* records (TID 0):
  // replica pages must converge, but Phase#1 must not surface these as user
  // DMLs — the aborted transaction's buffered DMLs are simply discarded when
  // the abort record arrives (§5.1).
  // Compensating system records (TID 0) are shipped under each table's
  // latch, like forward operations, to preserve per-page log order.
  auto comp_ship = [this](std::vector<RedoRecord>* redo) {
    std::vector<RedoRecord*> ptrs;
    for (RedoRecord& r : *redo) ptrs.push_back(&r);
    redo_->Append(std::move(ptrs), /*durable=*/false);
    redo->clear();
  };
  for (auto it = txn->undo_.rbegin(); it != txn->undo_.rend(); ++it) {
    RowTable* t = engine_->GetTable(it->table_id);
    if (t == nullptr) continue;
    std::vector<RedoRecord> comp;
    // Best-effort physical undo: a row already back at its pre-image (e.g.
    // a retried rollback) reports NotFound/Busy here; the version-chain
    // drop below is what makes the abort logically complete.
    switch (it->op) {
      case UndoEntry::Op::kInsert:
        (void)t->DeleteImage(it->pk, &comp, comp_ship);
        break;
      case UndoEntry::Op::kUpdate:
        (void)t->UpdateImage(it->pk, it->old_image, &comp, comp_ship);
        break;
      case UndoEntry::Op::kDelete:
        (void)t->InsertImage(it->pk, it->old_image, &comp, comp_ship);
        break;
    }
  }
  RedoRecord abort;
  abort.type = RedoType::kAbort;
  abort.tid = txn->tid_;
  abort.prev_lsn = txn->last_lsn_;
  redo_->AppendOne(&abort, /*durable=*/false);
  // Drop the in-flight row versions now that the undo images are physically
  // restored: surviving chain bases mirror the tree again, and snapshot
  // readers (which skipped the in-flight versions all along) never saw any
  // of the rolled-back state.
  {
    std::map<TableId, std::vector<int64_t>> by_table;
    for (const UndoEntry& u : txn->undo_) by_table[u.table_id].push_back(u.pk);
    for (auto& [table_id, pks] : by_table) {
      RowTable* t = engine_->GetTable(table_id);
      if (t != nullptr) t->AbortVersions(txn->tid_, pks);
    }
  }
  ReleaseLocks(txn);
  aborts_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void TransactionManager::ReleaseLocks(Transaction* txn) {
  // Strict 2PL: everything the transaction holds goes at commit/rollback,
  // released per key from the txn's own acquisition list (O(locks held)).
  for (auto& [table, pk] : txn->locks_) locks_->Unlock(txn->tid_, table, pk);
  txn->locks_.clear();
}

}  // namespace imci
