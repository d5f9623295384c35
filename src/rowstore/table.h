#ifndef POLARDB_IMCI_ROWSTORE_TABLE_H_
#define POLARDB_IMCI_ROWSTORE_TABLE_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <shared_mutex>
#include <vector>

#include "common/latch.h"
#include "common/row.h"
#include "common/schema.h"
#include "rowstore/btree.h"
#include "rowstore/mvcc.h"

namespace imci {

/// A row-store table: B+tree primary index plus optional in-memory secondary
/// indexes over integer-family columns. Writers are serialized by an
/// exclusive latch; readers take the latch shared (the paper's row store is
/// similarly single-writer per tree at the SMO level). Scans latch per-step
/// (a bounded batch of rows per shared-latch acquisition), so a slow scan
/// never holds writers off for its whole duration; snapshot readers get
/// their consistency from the MVCC version chains instead of the latch.
///
/// All mutating methods append physical REDO records (tid/lsn unset) to
/// `redo`; the transaction layer stamps and ships them. When a `ship`
/// callback is passed, it runs *before the write latch is released*: log
/// order must equal page-modification order or Phase#1 replay applies slot
/// operations out of order. Single-threaded callers (tests, bulk tools) may
/// omit it and ship afterwards.
///
/// MVCC: the table keeps no version bookkeeping of its own — it is a client
/// of the shared VersionChains layer (rowstore/mvcc.h), guarded by the same
/// table latch as the tree. A mutation carrying a non-zero `writer` TID
/// installs an in-flight version in the row's chain. Chains are a side
/// structure over the B+tree (the tree always holds the newest physical
/// image — the one REDO replication reproduces on replicas); Snapshot*
/// readers resolve the newest version with commit VID <= their snapshot,
/// falling back to the tree for rows with no chain. Chain *resolution* is
/// latch-free: readers take the shared latch only to harvest the chain head
/// (and for tree access), then traverse arena-backed nodes with
/// acquire-loads under an ArenaReadGuard — the table latch stays on the
/// write/maintenance path only. The pruning invariant
/// that makes the fallback safe: chains are only trimmed below the oldest
/// live snapshot (SnapshotRegistry::Watermark), so a missing chain means the
/// tree image is visible to every snapshot that can still be opened or is
/// live. The same machinery serves the RO replica (Phase#1 installs via
/// ApplyReplica, Phase#2 stamps via StampVersions) and the boot-time undo
/// pass (RollbackInflight).
class RowTable {
 public:
  /// Ships stamped records to the log; invoked under the table write latch.
  using RedoShipFn = std::function<void(std::vector<RedoRecord>*)>;

  /// Rows per shared-latch acquisition during scans (the per-step unit).
  static constexpr size_t kScanBatch = 256;

  RowTable(std::shared_ptr<const Schema> schema, BufferPool* pool,
           std::atomic<PageId>* page_alloc, PageId meta_page_id);

  Status CreateEmpty();

  const Schema& schema() const { return *schema_; }
  PageId meta_page_id() const { return btree_.meta_page_id(); }

  Status Insert(const Row& row, std::vector<RedoRecord>* redo,
                const RedoShipFn& ship = nullptr, Tid writer = 0);
  Status Update(int64_t pk, const Row& new_row, Row* old_row,
                std::vector<RedoRecord>* redo,
                const RedoShipFn& ship = nullptr, Tid writer = 0);
  Status Delete(int64_t pk, Row* old_row, std::vector<RedoRecord>* redo,
                const RedoShipFn& ship = nullptr, Tid writer = 0);
  Status Get(int64_t pk, Row* row) const;

  /// Newest *committed* image of `pk` (chain resolution first, tree
  /// fallback). False when the row's committed state is absent/deleted.
  /// Checkpoint serialization uses this to capture pre-images of rows touched
  /// by in-flight transactions — the tree itself may already hold their
  /// uncommitted after-images.
  bool CommittedImage(int64_t pk, std::string* image) const;

  // --- MVCC snapshot read path -------------------------------------------

  /// Point read at snapshot `s` (a *registered* snapshot: the caller holds
  /// it open in the SnapshotRegistry, so the prune watermark never exceeds
  /// it). The table latch is taken shared only for the chain-map/tree
  /// lookup; the chain itself is resolved latch-free under an
  /// ArenaReadGuard — trims running concurrently never cut at or above a
  /// registered snapshot, and unlinked nodes stay readable until the guard
  /// closes.
  Status SnapshotGet(Vid s, int64_t pk, Row* row) const;
  /// Registration-free point read at the *current* published snapshot.
  /// Chainless rows read the tree under the shared latch (pruning
  /// invariant). Rows with a chain resolve latch-free; because nothing
  /// registers the sampled VID, a concurrent commit's trim can race past
  /// it, so a resolution that comes up empty re-samples `published`: stable
  /// sample == genuine NotFound, advanced sample == re-harvest and retry
  /// (each retry needs a further commit, so the loop terminates).
  Status SnapshotGetCurrent(const std::atomic<Vid>& published, int64_t pk,
                            Row* row) const;
  /// Key-ordered scans at snapshot `s`. Rows deleted after the snapshot was
  /// taken (chain-only keys no longer in the tree) are still produced; rows
  /// inserted or updated by in-flight or later-committed transactions are
  /// not. Latches per-step like the latest-state scans.
  Status SnapshotScan(Vid s,
                      const std::function<bool(int64_t, const Row&)>& fn) const;
  Status SnapshotScanRange(
      Vid s, int64_t lo, int64_t hi,
      const std::function<bool(int64_t, const Row&)>& fn) const;
  /// Secondary-index lookups at snapshot `s`: index candidates are
  /// re-checked against the snapshot-visible image (the index tracks the
  /// *latest* writes, committed or not), and version chains are swept for
  /// rows whose only snapshot-visible version the index no longer points
  /// to. Cost note: the sweep is O(rows with a live chain) per lookup —
  /// bounded by the checkpoint cadence (pruning erases caught-up chains),
  /// fine for the RW's occasional index-hinted snapshot plans, but a
  /// displaced-entry side index would be needed before putting this on a
  /// hot path.
  Status SnapshotIndexLookup(Vid s, int col, int64_t key,
                             std::vector<int64_t>* pks) const;
  Status SnapshotIndexLookupRange(Vid s, int col, int64_t lo, int64_t hi,
                                  std::vector<int64_t>* pks) const;

  // --- MVCC version maintenance (transaction layer / Phase#2) ------------

  /// Stamps `tid`'s in-flight versions on `pks` with commit VID `vid`, then
  /// opportunistically trims each touched chain below `trim_below` (the
  /// oldest VID any live or future snapshot can read) so hot rows don't
  /// accumulate history between checkpoints. Called by the RW Commit (and
  /// by the RO pipeline's commit decision) *before* the snapshot point
  /// advances past `vid`.
  void StampVersions(Tid tid, Vid vid, const std::vector<int64_t>& pks,
                     Vid trim_below);
  /// Removes `tid`'s in-flight versions on `pks` (rollback / replicated
  /// abort). Call after the undo images are physically restored so
  /// surviving chain bases match the tree again.
  void AbortVersions(Tid tid, const std::vector<int64_t>& pks);
  /// Removes versions already stamped with commit VID `vid` on `pks` — the
  /// kDurable lost-commit retraction (the commit record was trimmed by a
  /// refused batch fsync before its VID was ever published). Call after the
  /// undo images are physically restored, like AbortVersions. Returns
  /// versions dropped.
  size_t RetractVersions(Vid vid, const std::vector<int64_t>& pks);
  /// Checkpoint pruning: drops all history below `watermark` and erases
  /// chains whose single survivor is the live tree image (or a committed
  /// delete of a key the tree no longer holds). Returns versions dropped.
  size_t PruneVersions(Vid watermark);

  /// Number of rows currently carrying a version chain (tests/stats).
  size_t versioned_row_count() const;
  /// Chain length of `pk` (0 when the row has no chain).
  size_t VersionChainLength(int64_t pk) const;
  /// Longest chain in the table. O(1): maintained incrementally by the
  /// version layer, not by walking every chain.
  size_t MaxVersionChainLength() const;
  /// O(1) snapshot of the table's MVCC counters and arena accounting.
  MvccStats MvccStatsSnapshot() const;

  /// Raw-image variants used by transaction rollback (no re-encode).
  Status InsertImage(int64_t pk, const std::string& image,
                     std::vector<RedoRecord>* redo,
                     const RedoShipFn& ship = nullptr);
  Status UpdateImage(int64_t pk, const std::string& image,
                     std::vector<RedoRecord>* redo,
                     const RedoShipFn& ship = nullptr);
  Status DeleteImage(int64_t pk, std::vector<RedoRecord>* redo,
                     const RedoShipFn& ship = nullptr);

  /// Key-ordered full scan of the latest state (per-step latching: the
  /// shared latch is re-acquired every kScanBatch rows, so concurrent
  /// writers interleave with a long scan instead of stalling behind it).
  Status Scan(const std::function<bool(int64_t, const Row&)>& fn) const;
  Status ScanRange(int64_t lo, int64_t hi,
                   const std::function<bool(int64_t, const Row&)>& fn) const;

  bool HasIndexOn(int col) const { return sec_index_.count(col) > 0; }

  /// Bulk-loads rows sorted by PK without redo; also builds secondary
  /// indexes. Used for the initial data load.
  Status BulkLoad(std::vector<Row> rows);

  /// Rebuilds secondary indexes and the row count by scanning the B+tree.
  /// Used when attaching to a replica whose pages already exist (RO boot).
  Status RebuildIndexesFromPages();

  // --- Replica apply path (Phase#1) ---------------------------------------

  /// Deferred replica-side effect of one replayed page record: Phase#1
  /// applies page changes under the page latch, then hands this to the
  /// table *after* that latch is released (readers nest table latch -> page
  /// latch; the reverse nesting would deadlock). Carries both the metadata
  /// maintenance (secondary indexes, row count) and the MVCC installation:
  /// a record with a non-zero `tid` is an in-flight user DML whose images
  /// enter the row's version chain, keyed by the owning transaction, until
  /// the Phase#2 commit decision stamps them — so replica row-engine
  /// readers at a pinned snapshot never observe a transaction mid-apply.
  /// System records (tid 0: SMO, rollback compensation) maintain metadata
  /// only.
  struct ReplicaApply {
    enum class Kind : uint8_t { kNone, kInsert, kUpdate, kDelete };
    Kind kind = Kind::kNone;
    Tid tid = 0;
    Row old_row;             // update/delete (index/rowcount maintenance)
    Row new_row;             // insert/update
    std::string image;       // after image (insert/update version)
    std::string base_image;  // pre-image (update/delete chain base seed)
  };
  void ApplyReplica(ReplicaApply&& a);

  // --- Boot-time recovery (ARIES undo) ------------------------------------

  /// Rolls back every row whose chain still carries in-flight (unstamped)
  /// versions: the page state is physically restored to the newest
  /// committed version the chain recorded (the images compensation records
  /// would have carried), secondary indexes and the row count are fixed up,
  /// and the in-flight entries are dropped. Only valid when no more log
  /// will arrive for those transactions — i.e. after replaying a final
  /// (crashed) log prefix; the restore is replica-local and ships no redo.
  /// Returns the number of in-flight versions undone.
  size_t RollbackInflight();

  /// Boot-time seeding for a replica restored from a checkpoint whose pages
  /// may hold after-images of a transaction that was still in flight at
  /// checkpoint time: installs the current tree image as `tid`'s in-flight
  /// version and seeds the chain base with the checkpoint-carried committed
  /// pre-image (absent when `has_pre` is false — the row did not exist).
  /// Until the replayed log delivers `tid`'s decision, snapshot readers see
  /// the pre-image and RollbackInflight can physically restore it.
  void InstallBootInflight(Tid tid, int64_t pk, bool has_pre,
                           const std::string& pre_image);

  uint64_t row_count() const { return row_count_.load(); }

 private:
  void IndexInsert(const Row& row, int64_t pk);
  void IndexRemove(const Row& row, int64_t pk);
  /// Physically restores `pk` to `target` (nullptr/deleted == absent) under
  /// the write latch; fixes indexes and the row count. Undo-path helper.
  void RestoreRowLocked(int64_t pk, const RowVersion* target);

  std::shared_ptr<const Schema> schema_;
  BTree btree_;
  /// Writer-priority: per-step scan re-acquisitions must not starve the
  /// OLTP write path (see WriterPrioritySharedMutex).
  mutable WriterPrioritySharedMutex latch_;
  // col -> (key -> pk set)
  std::map<int, std::map<int64_t, std::set<int64_t>>> sec_index_;
  /// pk -> MVCC version chain (shared layer, rowstore/mvcc.h). Guarded by
  /// latch_ (exclusive for writers, stamping, abort and pruning; shared for
  /// snapshot readers).
  VersionChains versions_;
  std::atomic<uint64_t> row_count_{0};
};

}  // namespace imci

#endif  // POLARDB_IMCI_ROWSTORE_TABLE_H_
