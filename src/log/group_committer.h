#ifndef POLARDB_IMCI_LOG_GROUP_COMMITTER_H_
#define POLARDB_IMCI_LOG_GROUP_COMMITTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/status.h"
#include "common/types.h"

namespace imci {

class LogStore;

/// Leader-based group commit for a LogStore: one fsync per *batch* of
/// concurrent durable appends instead of one per append.
///
/// Appends are write-through (LogStore lands every record in the segment
/// file immediately), so durability is purely a matter of when the fsync
/// happens. A committer calls SyncTo(lsn) after its record is appended and
/// published: the first waiter that finds no flush in progress becomes the
/// batch *leader* — it snapshots the log's written tail, issues a single
/// Sync() covering every record appended up to that instant (its own and
/// everyone else's), advances the durable watermark to the snapshot, and
/// wakes the *followers*, who were blocked on the condition variable instead
/// of fsyncing themselves. Commits that arrive while a flush is in flight
/// pile up and are drained by the next leader in one more fsync, so the
/// fsync count scales with batch count, not client count — the property
/// that lifts the RW commit ceiling at high concurrency (and that makes the
/// Fig. 11 binlog arm's *extra* fsync a per-batch, not per-txn, cost).
///
/// Ordering note: batching changes *when* records become durable, never
/// their LSN order — LSNs are assigned at append time, before SyncTo. The
/// commit-VID ≡ commit-LSN invariant Phase#2 replay relies on is enforced by
/// the caller's enqueue-side critical section (TransactionManager::Commit).
///
/// Failure model: a failed batch fsync fails EVERY commit in the batch —
/// leader and followers alike get the error, the durable watermark does not
/// move (durability that did not happen is never reported), and the log is
/// poisoned (LogStore::PoisonToDurable trims the un-fsynced tail) so later
/// commits fail fast until Reopen() recovers it clean at the pre-batch
/// watermark.
class GroupCommitter {
 public:
  explicit GroupCommitter(LogStore* log) : log_(log) {}

  /// Blocks until every record at or below `lsn` is durable, joining (or
  /// leading) a batch fsync as described above. `lsn` must already be
  /// appended to the log and published via written_lsn(); passing a
  /// not-yet-appended LSN would flush forever without covering it. Counts
  /// one commit against the batching stats. Fails — without advancing the
  /// durable watermark — when the covering batch fsync failed or the log is
  /// already poisoned.
  Status SyncTo(Lsn lsn);

  /// Records at or below this LSN are durable. Monotonic.
  Lsn durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }

  /// Re-seeds the durable watermark after recovery: everything a LogStore
  /// re-reads from segment files is by definition durable. Also clears a
  /// poison latched by a failed batch fsync — recovery re-derived a clean
  /// durable state. (Lock order: LogStore::mu_ → this->mu_, the same nesting
  /// PoisonToDurable uses from the leader path, which holds neither.)
  void ResetDurable(Lsn lsn) {
    std::lock_guard<std::mutex> g(mu_);
    durable_lsn_.store(lsn, std::memory_order_release);
    poisoned_ = Status::OK();
    cv_.notify_all();
  }

  /// Leader fsync batches issued.
  uint64_t batches() const {
    return batches_.load(std::memory_order_relaxed);
  }
  /// Durable commits (SyncTo calls) served.
  uint64_t commits() const {
    return commits_.load(std::memory_order_relaxed);
  }
  /// batches/commits: 1.0 single-threaded, < 1 whenever batching happens.
  double fsyncs_per_commit() const {
    const uint64_t c = commits();
    return c == 0 ? 0.0 : static_cast<double>(batches()) / c;
  }
  /// commits/batches: how many commits the average fsync covered.
  double mean_batch_size() const {
    const uint64_t b = batches();
    return b == 0 ? 0.0 : static_cast<double>(commits()) / b;
  }

 private:
  LogStore* log_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool leader_active_ = false;  // guarded by mu_: at most one flush in flight
  Status poisoned_;  // guarded by mu_: non-OK after a failed batch fsync
  std::atomic<Lsn> durable_lsn_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> commits_{0};
};

}  // namespace imci

#endif  // POLARDB_IMCI_LOG_GROUP_COMMITTER_H_
