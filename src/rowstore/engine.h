#ifndef POLARDB_IMCI_ROWSTORE_ENGINE_H_
#define POLARDB_IMCI_ROWSTORE_ENGINE_H_

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/schema.h"
#include "polarfs/polarfs.h"
#include "redo/redo_writer.h"
#include "rowstore/binlog.h"
#include "rowstore/buffer_pool.h"
#include "rowstore/lock_manager.h"
#include "rowstore/mvcc.h"
#include "rowstore/table.h"

namespace imci {

/// Node-local row storage engine: tables + buffer pool + page allocation.
/// The RW node owns the authoritative instance; RO nodes own replicas whose
/// pages are maintained by Phase#1 replay.
class RowStoreEngine {
 public:
  RowStoreEngine(PolarFs* fs, Catalog* catalog);

  /// Creates an empty table and registers the schema in the shared catalog.
  Status CreateTable(std::shared_ptr<const Schema> schema);

  /// Attaches to a table whose pages already exist in shared storage (RO
  /// boot path). `meta_page_id` comes from the RW's table registry file.
  Status AttachTable(std::shared_ptr<const Schema> schema,
                     PageId meta_page_id);

  RowTable* GetTable(TableId id);
  const RowTable* GetTable(TableId id) const;
  /// Every registered table (checkpoint-time version pruning walks these).
  std::vector<RowTable*> AllTables();

  BufferPool* buffer_pool() { return &pool_; }
  Catalog* catalog() { return catalog_; }
  const Catalog* catalog() const { return catalog_; }

  /// Live snapshots on this node (rowstore/mvcc.h): the RW's transaction
  /// manager registers its read views here, an RO node its row plans,
  /// column plans and fragments — and every version trim/prune on this
  /// engine's tables, like every column-index drop and reclaim on the RO,
  /// bounds itself by the same registry's watermark.
  SnapshotRegistry* snapshots() { return &snapshots_; }

  /// ARIES-style undo at boot: rolls back the page effects of every
  /// transaction whose versions are still unstamped at the end of physical
  /// replay, restoring each touched row to the newest committed image its
  /// version chain recorded. Only valid over a *final* log (crash
  /// recovery): a live pipeline would still deliver those transactions'
  /// commit decisions. Returns the number of versions undone.
  size_t UndoInflight();

  /// Engine-wide MVCC counters: the per-table snapshots summed (max for the
  /// chain-length bound). O(tables), not O(chains) — each table's snapshot
  /// is a counter read.
  MvccStats MvccStatsSnapshot() const;

  /// Flushes all dirty pages to shared storage and persists the table
  /// registry (table id -> meta page id) so other nodes can attach.
  Status CheckpointPages();

  /// Loads the table registry persisted by CheckpointPages.
  static Status LoadRegistry(
      PolarFs* fs, std::vector<std::pair<TableId, PageId>>* entries);

 private:
  PolarFs* fs_;
  Catalog* catalog_;
  BufferPool pool_;
  std::atomic<PageId> page_alloc_{0};
  SnapshotRegistry snapshots_;
  mutable std::mutex mu_;
  std::unordered_map<TableId, std::unique_ptr<RowTable>> tables_;
};

/// Undo record kept RW-side for rollback.
struct UndoEntry {
  enum class Op : uint8_t { kInsert, kUpdate, kDelete } op;
  TableId table_id;
  int64_t pk;
  std::string old_image;  // for update/delete undo
};

/// A client transaction on the RW node. Created by TransactionManager;
/// not thread-safe (one session uses one transaction at a time).
class Transaction {
 public:
  Tid tid() const { return tid_; }
  Vid commit_vid() const { return commit_vid_; }
  /// LSN of the commit record (0 until Commit succeeds). Commit-VID order
  /// equals commit-LSN order, so a durable-LSN watermark also cuts the
  /// commit history at a VID prefix (what crash recovery restores).
  Lsn commit_lsn() const { return commit_lsn_; }

 private:
  friend class TransactionManager;
  Tid tid_ = 0;
  Lsn last_lsn_ = 0;
  Vid commit_vid_ = 0;
  Lsn commit_lsn_ = 0;
  uint32_t dml_count_ = 0;
  bool finished_ = false;
  std::vector<UndoEntry> undo_;
  std::vector<std::pair<TableId, int64_t>> locks_;
  std::vector<BinlogWriter::Event> binlog_events_;
};

class TransactionManager;

/// RAII MVCC read view: a snapshot VID registered as live with its
/// TransactionManager, so commit-time chain trimming and checkpoint pruning
/// keep every version the view can still read. All reads through one view
/// observe a single commit point (snapshot isolation). A default-constructed
/// view carries vid kMaxVid and reads the newest committed state.
class ReadView {
 public:
  ReadView() = default;
  ReadView(ReadView&& o) noexcept : mgr_(o.mgr_), vid_(o.vid_) {
    o.mgr_ = nullptr;
  }
  ReadView& operator=(ReadView&& o) noexcept {
    if (this != &o) {
      Close();
      mgr_ = o.mgr_;
      vid_ = o.vid_;
      o.mgr_ = nullptr;
    }
    return *this;
  }
  ReadView(const ReadView&) = delete;
  ReadView& operator=(const ReadView&) = delete;
  ~ReadView() { Close(); }

  Vid vid() const { return vid_; }
  /// Unregisters the snapshot early (idempotent).
  void Close();

 private:
  friend class TransactionManager;
  ReadView(TransactionManager* mgr, Vid vid) : mgr_(mgr), vid_(vid) {}
  TransactionManager* mgr_ = nullptr;
  Vid vid_ = kMaxVid;
};

/// Transaction execution on the RW node (§3.1 "Transaction Exe."): strict
/// 2PL row locks for writers, eager (commit-ahead) REDO shipping of DML
/// records, a single durable commit record per transaction, and compensating
/// system records on rollback so replica pages converge without exposing
/// aborted DMLs.
///
/// Readers never lock and never block: every read runs at an MVCC snapshot
/// VID taken under the existing commit ordering (commit-VID ≡ commit-LSN, so
/// snapshots are free — the current published commit point IS the snapshot).
/// Commit stamps the transaction's row versions with its VID *before*
/// publishing that VID as the new snapshot point, so a snapshot S always
/// sees exactly the transactions with commit VID <= S. `GetForUpdate` still
/// reads latest-committed under the exclusive row lock, and write-write
/// conflicts are unchanged.
class TransactionManager {
 public:
  /// When the snapshot point advances past a commit (the PR-4 carried
  /// visibility-vs-durability question):
  ///
  /// - kCommitPoint (default, the paper's freshness stance): published
  ///   under commit_mu_ the moment the commit's versions are stamped. A
  ///   reader can observe a commit whose group-commit fsync has not landed
  ///   yet — a crash in that window erases state a reader acted on.
  ///   Conflicting *writers* are safe either way: locks are held to
  ///   durability.
  /// - kDurable: the commit's (vid, lsn) enters a publication queue under
  ///   commit_mu_; the snapshot point advances only when the group-commit
  ///   durable watermark covers the commit record's LSN. Read freshness is
  ///   tied to fsync batch latency, and a refused batch fsync drops the
  ///   batch's queued publications — readers can never observe a commit the
  ///   trimmed log no longer contains.
  enum class Visibility : uint8_t { kCommitPoint, kDurable };

  TransactionManager(RowStoreEngine* engine, RedoWriter* redo,
                     LockManager* locks, BinlogWriter* binlog = nullptr);

  void Begin(Transaction* txn);

  Status Insert(Transaction* txn, TableId table, const Row& row);
  Status Update(Transaction* txn, TableId table, int64_t pk, const Row& row);
  Status Delete(Transaction* txn, TableId table, int64_t pk);
  /// Locks the row, then reads it (SELECT ... FOR UPDATE).
  Status GetForUpdate(Transaction* txn, TableId table, int64_t pk, Row* row);

  /// Single-statement read at a fresh snapshot.
  Status Get(TableId table, int64_t pk, Row* row);

  /// Opens a read view at the current commit point; all reads through it see
  /// one consistent snapshot until it closes.
  ReadView OpenReadView();
  Status Get(const ReadView& view, TableId table, int64_t pk, Row* row);
  Status Scan(const ReadView& view, TableId table,
              const std::function<bool(int64_t, const Row&)>& fn);
  Status ScanRange(const ReadView& view, TableId table, int64_t lo, int64_t hi,
                   const std::function<bool(int64_t, const Row&)>& fn);
  Status IndexLookup(const ReadView& view, TableId table, int col, int64_t key,
                     std::vector<int64_t>* pks);

  /// Commits: assigns the commit sequence number (VID) and enqueues the
  /// commit record under a short critical section (preserving commit-VID ≡
  /// commit-LSN order), then waits for the log's group-commit fsync outside
  /// it — concurrent commits share one fsync per batch. In binlog mode the
  /// logical record joins the same discipline (the strawman's second fsync
  /// becomes per-batch). Returns the commit VID via the txn.
  Status Commit(Transaction* txn);
  Status Rollback(Transaction* txn);

  /// Enables/disables the Binlog strawman (Fig. 11).
  void set_binlog_enabled(bool on) { binlog_enabled_ = on; }

  /// Switches when commits become visible to new snapshots (commit point vs
  /// durable watermark). Flip only while no commit is in flight (startup /
  /// between benchmark phases): a commit started in one mode must publish
  /// in the same mode.
  void set_visibility(Visibility v) { visibility_.store(v); }
  Visibility visibility() const { return visibility_.load(); }

  /// Commit point visible to new snapshots (published after version
  /// stamping, so a snapshot <= this VID always resolves).
  Vid snapshot_vid() const {
    return snapshot_vid_.load(std::memory_order_acquire);
  }
  /// Version-chain pruning bound: no live (or future) snapshot reads below
  /// this VID. Checkpoints prune row version chains to it.
  Vid PruneWatermark() const;

  Vid last_commit_vid() const { return next_vid_.load(); }
  uint64_t commits() const { return commits_.load(); }
  uint64_t aborts() const { return aborts_.load(); }

 private:
  friend class ReadView;

  RowTable::RedoShipFn MakeShip(Transaction* txn);
  void ReleaseLocks(Transaction* txn);
  void CloseReadView(Vid vid);
  /// kDurable publication: advances snapshot_vid_ over every queued commit
  /// whose record LSN the redo durable watermark now covers. Called after a
  /// successful group-commit sync; safe to race (pub_mu_).
  void PublishDurable();
  /// kDurable failure path: a refused batch fsync trimmed the log's
  /// un-fsynced tail, so queued publications above the durable watermark
  /// name commits that no longer exist. Dropping them here is what keeps
  /// them unpublishable forever — later appends reuse the trimmed LSN range,
  /// and a stale queue entry would otherwise "become durable" when an
  /// unrelated record lands on its LSN.
  void DropLostPublications();
  /// kDurable failure path, RW-side state: the refused batch fsync trimmed
  /// this transaction's commit record, but StampCommitLocked already stamped
  /// its row versions — a later commit publishing a higher VID (possible
  /// after the log reopens) would make them visible, exposing a commit the
  /// log no longer contains. Called under the still-held row locks, before
  /// ReleaseLocks: restores the tree images from the undo list (no redo
  /// shipping — the poisoned log refuses appends, and recovery rebuilds the
  /// same pre-batch state anyway) and unlinks the stamped versions, so the
  /// in-memory engine agrees with what recovery would rebuild.
  void RetractLostCommit(Transaction* txn);
  /// Stamps the txn's versions with its commit VID and trims chains below
  /// `trim_hint` (a PruneWatermark() value sampled before commit_mu_ was
  /// acquired — conservative by construction). Called under commit_mu_.
  void StampCommitLocked(Transaction* txn, Vid trim_hint);

  RowStoreEngine* engine_;
  RedoWriter* redo_;
  LockManager* locks_;
  BinlogWriter* binlog_;
  bool binlog_enabled_ = false;
  std::atomic<Tid> next_tid_{0};
  std::atomic<Vid> next_vid_{0};
  /// Published snapshot point: advanced (in VID order, under commit_mu_)
  /// only after the committing transaction's versions are stamped.
  ///
  /// The live-view registry and the prune-watermark hint live in the
  /// engine's SnapshotRegistry (rowstore/mvcc.h) — the same instance every
  /// trim/prune site on this engine consults — not here: read views opened
  /// through this manager and any other row snapshot on the engine share
  /// one watermark.
  std::atomic<Vid> snapshot_vid_{0};
  /// Keeps VID order == commit-record LSN order. Held only across VID
  /// assignment and record *enqueue* — never across the durability wait —
  /// so the commit ceiling is set by the group-commit batch rate, not by a
  /// serialized fsync per transaction.
  std::mutex commit_mu_;
  std::atomic<Visibility> visibility_{Visibility::kCommitPoint};
  /// kDurable mode: commits stamped but not yet covered by a durable batch
  /// fsync, in VID (≡ LSN) order. Guarded by pub_mu_ (acquired under
  /// commit_mu_ on the enqueue side only — publication takes pub_mu_ alone).
  std::mutex pub_mu_;
  std::deque<std::pair<Vid, Lsn>> pub_queue_;
  /// Queue-size mirror so the default kCommitPoint commit path never takes
  /// pub_mu_ (it stays exactly as fast as before the option existed).
  std::atomic<size_t> pub_pending_{0};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> aborts_{0};
};

}  // namespace imci

#endif  // POLARDB_IMCI_ROWSTORE_ENGINE_H_
