#ifndef POLARDB_IMCI_ROWSTORE_BINLOG_H_
#define POLARDB_IMCI_ROWSTORE_BINLOG_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/row.h"
#include "log/log_store.h"

namespace imci {

/// Logical row-event log — the "strawman approach" the paper evaluates
/// against (§3.2, Fig. 11): letting the RW node record additional logical
/// logs (MySQL Binlog) for the column store. Its cost is exactly what the
/// paper describes: every commit triggers an *additional* fsync and ships
/// full logical row images, inflating commit-path latency and log volume.
///
/// The Fig. 11 bench runs the same OLTP workload once with REDO reuse
/// (BinlogWriter disabled) and once with this writer feeding the RO's
/// logical-apply pipeline end-to-end.
///
/// Each committed transaction is one durable record in the shared "binlog"
/// LogStore (seq == binlog LSN, dense and 1-based). The record carries the
/// commit VID and timestamp so a logical-apply consumer reproduces the same
/// visibility order the REDO path does, plus a trailing checksum so replay
/// detects in-record corruption even when the segment frame passes.
class BinlogWriter {
 public:
  /// Attaches to the shared binlog, continuing after any records already
  /// present (a writer created post-recovery must not overwrite replayed
  /// history — the LogStore's recovered tail is the resume point).
  explicit BinlogWriter(LogStore* log);

  struct Event {
    enum class Op : uint8_t { kInsert, kUpdate, kDelete } op;
    TableId table_id;
    int64_t pk;
    std::string row_image;  // full after image (insert/update)
  };

  /// Serializes and appends one transaction's events write-through without
  /// waiting for durability; returns the record's binlog LSN. `vid`/
  /// `commit_ts_us` are the commit sequence number and RW commit wall-clock,
  /// recorded so logical apply assigns the same read-view VIDs as REDO
  /// reuse. The caller makes the record durable with SyncTo() *outside* the
  /// commit-ordering mutex, so the binlog arm's extra fsync is paid once per
  /// group-commit batch instead of once per transaction.
  /// Returns 0 and sets `*error` (when non-null) if the underlying append
  /// failed (poisoned or faulted binlog) — the transaction has no binlog
  /// record and must not commit.
  Lsn EnqueueTxn(Tid tid, Vid vid, uint64_t commit_ts_us,
                 const std::vector<Event>& events, Status* error = nullptr);

  /// Blocks until binlog records at or below `lsn` are durable (joins the
  /// binlog log's group commit). Fails when the covering batch fsync failed.
  Status SyncTo(Lsn lsn) { return log_->SyncTo(lsn); }

  /// Replays the durable binlog in commit order, invoking `fn` once per
  /// fully-recovered transaction. Stops at the first corrupt record (the
  /// LogStore already trims torn tails at open) and returns the number of
  /// transactions delivered. Static so a recovering process can replay
  /// without a writer.
  static size_t Replay(
      LogStore* log,
      const std::function<void(Tid, Vid, const std::vector<Event>&)>& fn);

  /// Decodes one serialized transaction record. Returns false (leaving the
  /// outputs unspecified) on truncation or checksum mismatch.
  static bool DecodeTxn(const std::string& data, Tid* tid, Vid* vid,
                        uint64_t* commit_ts_us, std::vector<Event>* events);

  uint64_t bytes_written() const { return bytes_.load(); }
  uint64_t txns_written() const { return txns_.load(); }
  /// Binlog LSN of the most recent commit record.
  Lsn last_seq() const { return log_->written_lsn(); }

 private:
  LogStore* log_;
  std::mutex mu_;
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> txns_{0};
};

}  // namespace imci

#endif  // POLARDB_IMCI_ROWSTORE_BINLOG_H_
