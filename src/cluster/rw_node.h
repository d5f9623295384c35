#ifndef POLARDB_IMCI_CLUSTER_RW_NODE_H_
#define POLARDB_IMCI_CLUSTER_RW_NODE_H_

#include <memory>

#include "common/schema.h"
#include "plan/logical.h"
#include "polarfs/polarfs.h"
#include "redo/redo_writer.h"
#include "rowstore/engine.h"

namespace imci {

/// The read/write primary (§3.1): row store + transaction execution + REDO
/// production. It is the only writer in the cluster; everything downstream
/// (RO row-store replicas and column indexes) is derived from its REDO log
/// through shared storage.
class RwNode {
 public:
  RwNode(PolarFs* fs, Catalog* catalog);

  Status CreateTable(std::shared_ptr<const Schema> schema) {
    return engine_.CreateTable(std::move(schema));
  }

  /// Initial data load, bypassing logging (the DDL/bulk path, §3.3).
  Status BulkLoad(TableId table, std::vector<Row> rows);

  /// Finishes the load phase: flushes all pages to shared storage, persists
  /// the table registry, and records the base LSN from which RO nodes must
  /// replay. Call once after all BulkLoads and before starting replication.
  Status FinishLoad();

  static Status ReadBaseLsn(PolarFs* fs, Lsn* lsn);

  /// Runs a read-only plan on the RW node's row engine at an MVCC snapshot
  /// (the Fig. 10 RW-snapshot-read arm): analytical or point-read traffic
  /// that must see fresh-as-of-now data without blocking — or being blocked
  /// by — the OLTP writers. In legacy read-committed mode the plan reads
  /// the latest (possibly torn) state, matching the pre-MVCC behaviour.
  Status ExecuteSnapshot(const LogicalRef& plan, std::vector<Row>* out);

  /// Prunes row version chains below the oldest live snapshot (checkpoint
  /// duty — same watermark discipline as redo/binlog recycling). Returns
  /// the number of versions dropped.
  size_t PruneVersions();

  TransactionManager* txn_manager() { return &txns_; }
  RowStoreEngine* engine() { return &engine_; }
  RedoWriter* redo() { return &redo_; }
  BinlogWriter* binlog() { return &binlog_; }
  PolarFs* fs() { return fs_; }

  /// LSN of the most recent redo append, of any record kind.
  Lsn written_lsn() const { return redo_.last_lsn(); }

 private:
  PolarFs* fs_;
  RowStoreEngine engine_;
  RedoWriter redo_;
  LockManager locks_;
  BinlogWriter binlog_;
  TransactionManager txns_;
};

}  // namespace imci

#endif  // POLARDB_IMCI_CLUSTER_RW_NODE_H_
