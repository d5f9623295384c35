#ifndef POLARDB_IMCI_REDO_REDO_WRITER_H_
#define POLARDB_IMCI_REDO_REDO_WRITER_H_

#include <atomic>
#include <mutex>
#include <vector>

#include "log/log_store.h"
#include "redo/redo_record.h"

namespace imci {

/// Appends REDO records to the shared "redo" log on PolarFS. DML records of
/// an in-flight transaction are appended *eagerly* (non-durably) so that
/// CALS can ship them before commit; the commit record is made durable by
/// the log's leader-based group commit — append non-durably under the commit
/// mutex, then SyncTo() outside it, so concurrent commits share one fsync
/// per batch (the only logging fsync the RW pays, which is exactly the
/// property the Binlog baseline destroys, Fig. 11).
///
/// Thread-safe: many transaction threads append concurrently; LSNs are
/// assigned under the append lock, so LSN order == log order. A writer
/// attached after recovery continues from the log's recovered tail.
class RedoWriter {
 public:
  explicit RedoWriter(LogStore* log)
      : log_(log), last_lsn_(log->written_lsn()) {}

  /// Assigns LSNs to `records`, serializes and appends them. Returns the LSN
  /// of the last appended record. `durable` forces an fsync (commit/abort).
  /// Returns 0 and sets `*error` (when non-null) on a failed append — the
  /// records are not in the log and their LSNs were never published.
  Lsn Append(std::vector<RedoRecord*> records, bool durable,
             Status* error = nullptr);

  /// Convenience for a single record.
  Lsn AppendOne(RedoRecord* rec, bool durable, Status* error = nullptr) {
    return Append({rec}, durable, error);
  }

  /// Blocks until every record at or below `lsn` is durable, joining the
  /// log's group commit (one fsync per batch of concurrent committers).
  /// Call *outside* the commit-ordering mutex so batches can form. Fails
  /// when the covering batch fsync failed (the commit is NOT durable).
  Status SyncTo(Lsn lsn) { return log_->SyncTo(lsn); }

  Lsn last_lsn() const { return last_lsn_.load(std::memory_order_acquire); }

  /// Group-commit durable watermark: every record at or below this LSN has
  /// been covered by a successful batch fsync. After a failed batch fsync
  /// the log trims its un-fsynced tail, so LSNs above this point name
  /// records that no longer exist (durable-visibility publication drops
  /// them).
  Lsn durable_lsn() const { return log_->durable_lsn(); }

  /// Poisons the log at its durable watermark (LogStore::PoisonToDurable),
  /// as a failed batch fsync does: every later append and commit is refused
  /// until recovery reopens the log.
  void PoisonToDurable() { log_->PoisonToDurable(log_->durable_lsn()); }

 private:
  LogStore* log_;
  std::mutex mu_;
  std::atomic<Lsn> last_lsn_;
};

/// Reads and deserializes REDO records from the shared log; used by RO nodes'
/// CALS receivers.
class RedoReader {
 public:
  explicit RedoReader(const LogStore* log) : log_(log) {}

  /// Reads records with LSN in (from, to]; appends to `out`. Returns the last
  /// LSN read (== from when nothing new). A storage failure stops the scan
  /// and is reported via `*error` (when non-null) — see LogStore::Read.
  Lsn Read(Lsn from, Lsn to, std::vector<RedoRecord>* out,
           Status* error = nullptr) const;

 private:
  const LogStore* log_;
};

}  // namespace imci

#endif  // POLARDB_IMCI_REDO_REDO_WRITER_H_
