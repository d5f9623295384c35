#ifndef POLARDB_IMCI_REPLICATION_PIPELINE_H_
#define POLARDB_IMCI_REPLICATION_PIPELINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/thread_pool.h"
#include "imci/checkpoint.h"
#include "imci/column_index.h"
#include "log/log_store.h"
#include "redo/redo_writer.h"
#include "replication/logical_apply.h"
#include "replication/logical_dml.h"
#include "replication/redo_parser.h"
#include "rowstore/buffer_pool.h"

namespace imci {

/// Which shared log Phase#1 consumes — the two arms of Fig. 11.
enum class ApplySource : uint8_t {
  /// Physical REDO reuse (the paper's design): Phase#1 replays pages and
  /// reconstructs logical DMLs from the "redo" log.
  kRedoReuse = 0,
  /// Logical binlog strawman, end-to-end: Phase#1 decodes committed
  /// transactions from the "binlog" log (LogicalApplySource).
  kLogicalBinlog = 1,
};

struct ReplicationOptions {
  /// Which log this node's pipeline tails. Logical-binlog nodes skip CALS
  /// and the row-replica maintenance (the binlog carries no page changes).
  ApplySource source = ApplySource::kRedoReuse;
  int parse_parallelism = 4;   // Phase#1 workers (page-grained)
  int apply_parallelism = 4;   // Phase#2 workers (row-grained)
  size_t chunk_records = 8192; // max records fetched per poll
  /// DML count at which a transaction buffer is pre-committed (§5.5).
  size_t large_txn_dml_threshold = 8192;
  /// Commit-Ahead Log Shipping (§5.1). When false (ablation), a committed
  /// transaction's DMLs are delivered one poll cycle late, emulating
  /// ship-at-commit propagation.
  bool commit_ahead = true;
  uint64_t poll_timeout_us = 2000;
  /// Poll iterations between maintenance passes (compaction / VID-map
  /// dropping / reclamation).
  int maintenance_interval = 64;
  bool enable_compaction = true;
  /// Bounded retry on transient source-read failures (IOError/Busy): the
  /// coordinator retries with exponential backoff, then declares the
  /// pipeline wedged. Corruption wedges immediately — retrying re-reads
  /// the same torn bytes.
  int max_transient_retries = 5;
  uint64_t retry_backoff_us = 200;        // first retry; doubles per attempt
  uint64_t retry_backoff_cap_us = 20'000;
};

/// The RO node's update-propagation engine (§5): a coordinator thread tails
/// the shared REDO log (woken by the RW's LSN broadcasts — CALS), runs
/// Phase#1 (parallel physical replay + DML reconstruction) as entries
/// arrive, buffers DMLs per transaction, and on each commit decision runs
/// Phase#2 (parallel row-grained apply into the column indexes, batched
/// commit of the applied VID).
///
/// Maintenance (insert-VID-map dropping, retired group reclamation) runs in
/// the coordinator thread between batches. Its bound is the watermark of
/// `replica_engine`'s SnapshotRegistry, the one registry every read on the
/// node registers with. Each pass also schedules compaction into the next
/// batch, which runs it after Phase#2 and before publishing the batch's VID
/// (serialized with Phase#2 as ColumnIndex::CompactGroup requires).
class ReplicationPipeline {
 public:
  /// `node_name` tags the coordinator thread for fault injection
  /// (fault::ScopedContext): a fault point armed with that scope hits this
  /// node's replication I/O only.
  ReplicationPipeline(std::string node_name, PolarFs* fs,
                      const Catalog* catalog,
                      BufferPool* ro_pool, ImciStore* imci, ThreadPool* pool,
                      ReplicationOptions options,
                      RowStoreEngine* replica_engine);
  ~ReplicationPipeline();

  /// Starts the background coordinator, tailing the log from `from_lsn`
  /// (exclusive) with the column-index state already at `start_vid`.
  void Start(Lsn from_lsn, Vid start_vid);
  void Stop();

  /// One synchronous poll iteration (used by tests and by CatchUp).
  Status PollOnce();
  /// Polls until everything appended up to `target_lsn` has been applied.
  Status CatchUp(Lsn target_lsn);

  /// Commit point visible to queries on this node (read view VID).
  Vid applied_vid() const { return applied_vid_.load(std::memory_order_acquire); }
  /// The applied commit point as an atomic, for SnapshotRegistry::Open —
  /// row-engine readers sample it under the registry mutex so maintenance
  /// pruning can never outrun a snapshot being registered.
  const std::atomic<Vid>& applied_vid_ref() const { return applied_vid_; }
  /// LSN up to which the log has been consumed.
  Lsn read_lsn() const { return read_lsn_.load(std::memory_order_acquire); }
  /// Which log this pipeline consumes; read_lsn is in that log's LSN space.
  ApplySource source() const { return options_.source; }
  /// The source log's durable watermark — the highest LSN this pipeline will
  /// ever consume. The written-but-unfsynced tail beyond it is retractable
  /// (a failed batch fsync trims it), so replicas never build state on it.
  Lsn source_durable_lsn() const { return source_log_->durable_lsn(); }
  /// Durable-but-unconsumed backlog (Fig. 14's "LSN delay"), bounded by
  /// the consumable ceiling (source_durable_lsn).
  uint64_t LsnDelay() const;

  LatencyHistogram* vd_histogram() { return &vd_; }
  RedoParser* parser() { return &parser_; }

  uint64_t applied_ops() const { return applied_ops_.load(); }
  uint64_t committed_txns() const { return committed_txns_.load(); }
  uint64_t precommitted_txns() const { return precommitted_txns_.load(); }
  uint64_t compactions() const { return compactions_.load(); }

  // --- Health (the honest-failure surface the cluster monitor reads) ------

  /// True once the coordinator gave up: a source-read failure survived the
  /// bounded retries (or was Corruption). A wedged pipeline stops consuming
  /// the log — it never silently stalls with running_ still true — and
  /// stays wedged until the node is torn down or Start() runs again.
  bool wedged() const { return wedged_.load(std::memory_order_acquire); }
  /// The failure that wedged the pipeline (OK while healthy).
  Status wedge_reason() const;
  /// Wall-clock (NowMicros) of the coordinator's last liveness tick; a
  /// stale value with running_ true means the thread is hung, which the
  /// cluster monitor treats like a wedge.
  uint64_t heartbeat_us() const {
    return heartbeat_us_.load(std::memory_order_acquire);
  }
  /// Transient read failures absorbed by retry (did not wedge).
  uint64_t transient_retries() const {
    return transient_retries_.load(std::memory_order_relaxed);
  }
  /// Most recent coordinator-driven checkpoint failure (OK when none): a
  /// failed checkpoint must not wedge replication, but must not vanish.
  Status last_checkpoint_error() const;

  /// Takes a checkpoint at the current applied state (RO-leader duty, §7):
  /// flushes this node's row-store pages (with their page LSNs), then
  /// persists all column indexes at CSN = applied_vid plus the in-flight
  /// transaction buffers (CALS has already shipped their DMLs; the flushed
  /// pages make those records unreplayable for a booting node, so the
  /// buffers must travel with the checkpoint). start_lsn is therefore
  /// exactly read_lsn. Runs quiesced: call from the coordinator thread
  /// context or while the pipeline is stopped; PollOnce-driven tests may
  /// call it directly between polls.
  Status TakeCheckpoint(uint64_t ckpt_id);

  /// Restores in-flight transaction buffers persisted by a checkpoint.
  /// Call after Boot's LoadLatest and before Start/PollOnce. On a node
  /// maintaining a row replica, also re-creates each in-flight transaction's
  /// version chains from the checkpoint-carried committed pre-images, so
  /// readers gate the flushed pages' mid-transaction effects until the
  /// replayed log delivers the commit decisions.
  Status RestoreInflight(const std::string& blob);

  /// Logical-binlog bootstrap across the recycled prefix: replays archived
  /// binlog transactions with LSN in (read_lsn, upto] through Phase#2, in
  /// chunks, and advances read_lsn. Corruption when the archive does not
  /// reach `upto`. Call before Start (the live log takes over from there).
  Status BootstrapFromArchive(Lsn upto);

  /// Requests the coordinator to take a checkpoint at the next boundary.
  void RequestCheckpoint(uint64_t ckpt_id);

  /// Sets the checkpoint filter: Phase#2 skips transactions with commit
  /// VID <= `csn`, whose effects the booted state already contains. Must be
  /// called before Start.
  void set_skip_vids_upto(Vid csn) { skip_vids_upto_ = csn; }

 private:
  struct CommittedTxn {
    std::shared_ptr<TxnBuffer> buffer;
    Vid vid = 0;
    uint64_t commit_ts_us = 0;
  };

  void CoordinatorLoop();
  /// Latches the terminal failure state and stops the coordinator.
  void Wedge(Status reason);
  Status PollRedoOnce();
  Status PollLogicalOnce();
  void DeliverDmls(std::vector<LogicalDml>&& dmls);
  void MaybePreCommit(const std::shared_ptr<TxnBuffer>& buf);
  void ApplyBatch(std::vector<CommittedTxn>& batch);
  void RunMaintenance();
  std::string SerializeInflight() const;
  /// True when this pipeline maintains a row-store replica whose MVCC
  /// version chains Phase#1 installs into (redo-reuse only: the binlog
  /// carries no page changes, so logical-apply replicas stay at the base state).
  bool MaintainsRowReplica() const {
    return options_.source == ApplySource::kRedoReuse;
  }
  /// Phase#2 commit decision for the row replica: stamps the transaction's
  /// in-flight versions with its commit VID. Runs before applied_vid_
  /// advances past `vid`, so a reader pinned at the new applied point
  /// always finds the versions stamped.
  void StampReplicaVersions(const TxnBuffer& buf, Vid vid);
  /// Replicated abort: drops the transaction's in-flight versions (its page
  /// effects were already physically reverted by the RW's compensation
  /// records, which precede the abort record in the log).
  void DropReplicaVersions(const TxnBuffer& buf);

  const std::string node_name_;
  PolarFs* fs_;
  const Catalog* catalog_;
  BufferPool* ro_pool_;
  ImciStore* imci_;
  ThreadPool* pool_;
  RowStoreEngine* replica_engine_;
  ReplicationOptions options_;
  Vid skip_vids_upto_ = 0;
  LogStore* source_log_;  // the log this pipeline tails (redo or binlog)
  RedoParser parser_;
  RedoReader reader_;
  LogicalApplySource logical_;

  std::unordered_map<Tid, std::shared_ptr<TxnBuffer>> txn_buffers_;
  std::vector<CommittedTxn> delayed_;  // CALS-off emulation

  std::atomic<Lsn> read_lsn_{0};
  std::atomic<Vid> applied_vid_{0};
  std::atomic<uint64_t> applied_ops_{0};
  std::atomic<uint64_t> committed_txns_{0};
  std::atomic<uint64_t> precommitted_txns_{0};
  std::atomic<uint64_t> compactions_{0};
  LatencyHistogram vd_;

  std::thread coordinator_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> checkpoint_request_{0};
  int polls_since_maintenance_ = 0;
  bool compaction_due_ = false;  // the next ApplyBatch compacts

  std::atomic<bool> wedged_{false};
  std::atomic<uint64_t> heartbeat_us_{0};
  std::atomic<uint64_t> transient_retries_{0};
  mutable std::mutex health_mu_;
  Status wedge_reason_;           // guarded by health_mu_
  Status last_checkpoint_error_;  // guarded by health_mu_
};

}  // namespace imci

#endif  // POLARDB_IMCI_REPLICATION_PIPELINE_H_
