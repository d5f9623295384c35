#ifndef POLARDB_IMCI_REPLICATION_LOGICAL_APPLY_H_
#define POLARDB_IMCI_REPLICATION_LOGICAL_APPLY_H_

#include <vector>

#include "common/schema.h"
#include "log/log_store.h"
#include "replication/logical_dml.h"
#include "rowstore/binlog.h"

namespace imci {

/// One committed transaction decoded from the logical binlog, ready for the
/// pipeline's Phase#2 (row-grained parallel apply).
struct LogicalTxn {
  Tid tid = 0;
  Vid vid = 0;
  uint64_t commit_ts_us = 0;
  std::vector<LogicalDml> dmls;
};

/// The alternative Phase#1 (§3.2's strawman, made end-to-end): instead of
/// reconstructing logical DMLs from physical REDO, tail the logical binlog
/// the RW node wrote and decode its full row images. One binlog record is
/// one committed transaction, so there is no commit-ahead shipping and no
/// per-transaction buffering — exactly the propagation model whose costs
/// Fig. 11 charges to the Binlog baseline.
class LogicalApplySource {
 public:
  LogicalApplySource(LogStore* binlog, const Catalog* catalog)
      : log_(binlog), catalog_(catalog) {}

  /// Reads committed transactions with binlog LSN in (from, from + max_txns]
  /// and decodes them into `out` (appended in commit order). Corrupt records
  /// are skipped defensively, like RedoReader does for torn REDO entries.
  /// Returns the last binlog LSN consumed. A storage failure stops the scan
  /// and is reported via `*error` (when non-null) so the pipeline can retry
  /// or wedge instead of silently stalling.
  Lsn Poll(Lsn from, size_t max_txns, std::vector<LogicalTxn>* out,
           Status* error = nullptr);

  /// Decodes raw binlog record payloads (the first carrying LSN `first_lsn`,
  /// the rest consecutive) into transactions — the Poll body without the log
  /// read, reused by the archive bootstrap path, whose records come from
  /// ArchiveStore::ReadRecords instead of the live log.
  void DecodeRaw(Lsn first_lsn, const std::vector<std::string>& raw,
                 std::vector<LogicalTxn>* out);

 private:
  LogStore* log_;
  const Catalog* catalog_;
};

}  // namespace imci

#endif  // POLARDB_IMCI_REPLICATION_LOGICAL_APPLY_H_
