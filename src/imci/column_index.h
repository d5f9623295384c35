#ifndef POLARDB_IMCI_IMCI_COLUMN_INDEX_H_
#define POLARDB_IMCI_IMCI_COLUMN_INDEX_H_

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "imci/rid_locator.h"
#include "imci/row_group.h"

namespace imci {

struct ColumnIndexOptions {
  /// Rows per row group ("64K rows per row group" by default, §4.1).
  uint32_t row_group_size = 65536;
};

/// The In-Memory Column Index for one table (§4): append-only row groups in
/// insertion order, a RID locator for PK-based positioning, and insert /
/// delete VID maps for snapshot isolation. All updates are out-of-place:
/// an update appends the new version and logically deletes the old one.
///
/// Writers are the Phase#2 replay workers (RIDs are pre-assigned, so slots
/// never contend) and DDL bulk build; readers are the column engine's scans
/// at a read view VID registered with the node's SnapshotRegistry
/// (rowstore/mvcc.h), whose watermark bounds every drop and reclaim below.
class ColumnIndex {
 public:
  ColumnIndex(std::shared_ptr<const Schema> schema,
              ColumnIndexOptions options = ColumnIndexOptions());

  const Schema& schema() const { return *schema_; }
  /// Pack ordinal for a schema column ordinal, or -1 if not indexed.
  int PackForColumn(int col) const;

  // --- DML (§4.2) ----------------------------------------------------------

  /// Inserts a row visible from `vid`: allocate RID from the partial pack,
  /// record PK->RID in the locator, write the data, publish the insert VID.
  Status Insert(const Row& row, Vid vid);

  /// Logically deletes the current version of `pk` at `vid` and removes the
  /// locator mapping.
  Status Delete(int64_t pk, Vid vid);

  /// Out-of-place update: delete old version + append new version.
  Status Update(const Row& new_row, Vid vid);

  // --- Large-transaction pre-commit (§5.5) ---------------------------------

  /// Reserves `n` contiguous RIDs for a pre-committing transaction.
  Rid PreAllocate(uint32_t n);
  /// Writes a row into a pre-allocated slot with *invalid* VIDs (invisible).
  Status PreWrite(Rid rid, const Row& row);
  /// Rectifies a pre-written slot to become visible at `vid` (commit), also
  /// installing the PK->RID mapping.
  Status RectifyInsert(Rid rid, int64_t pk, Vid vid);

  // --- Reads ---------------------------------------------------------------

  Rid next_rid() const { return next_rid_.load(std::memory_order_acquire); }
  size_t num_groups() const;
  /// Group may be nullptr when reclaimed.
  std::shared_ptr<RowGroup> group(size_t i) const;
  /// Rows allocated in group `i` (<= row_group_size).
  uint32_t GroupUsed(size_t i) const;

  /// PK point lookup at `read_vid`. The locator maps a PK to its newest
  /// version only; when that version is not visible at `read_vid` (an older
  /// view, below the row's last update, delete or compaction), the version
  /// that is visible is found by scanning the groups' PK pack.
  Status LookupByPk(int64_t pk, Vid read_vid, Row* row) const;

  RidLocator* locator() { return &locator_; }
  const ColumnIndexOptions& options() const { return options_; }

  /// Materializes the indexed columns of the row stored at `rid` (no
  /// visibility check).
  Status MaterializeRow(Rid rid, Row* row) const;

  // --- Maintenance (§4.3) --------------------------------------------------

  /// Full groups with fewer than half of their rows valid at `read_vid`
  /// ("sparse Packs, with less than half of the valid rows, are picked as
  /// under-flowing").
  std::vector<size_t> FindUnderflowGroups(Vid read_vid) const;

  /// Compaction transaction (§4.3): re-appends every row of group `gid`
  /// still visible at `vid` to the partial packs, marks old versions deleted
  /// at `vid`, and retires the group. Must be serialized with Phase#2
  /// appliers by the caller (the replication maintenance thread runs it
  /// between apply batches). Returns the number of migrated rows.
  Status CompactGroup(size_t gid, Vid vid, uint32_t* moved);

  /// Frees retired groups no read view at or above `watermark` (the node's
  /// SnapshotRegistry bound) can still access.
  size_t ReclaimRetired(Vid watermark);

  /// Drops insert-VID maps of full groups whose inserts all lie below
  /// `watermark`, so every read view the registry still admits sees them.
  size_t DropInsertVidMaps(Vid watermark);

  uint64_t visible_rows(Vid read_vid) const;

 private:
  friend class ImciCheckpoint;

  std::shared_ptr<RowGroup> EnsureGroup(size_t idx);
  std::shared_ptr<RowGroup> GroupForRid(Rid rid) const {
    return group(rid / options_.row_group_size);
  }
  uint32_t OffsetForRid(Rid rid) const {
    return static_cast<uint32_t>(rid % options_.row_group_size);
  }

  std::shared_ptr<const Schema> schema_;
  ColumnIndexOptions options_;
  std::vector<int> cols_;            // schema ordinals in the index
  std::vector<int> col_to_pack_;     // schema ordinal -> pack ordinal or -1
  int pk_pack_ = -1;
  std::atomic<Rid> next_rid_{0};
  mutable std::shared_mutex groups_mu_;
  std::vector<std::shared_ptr<RowGroup>> groups_;
  RidLocator locator_;
};

/// All column indexes of one RO node (one per table with indexed columns).
class ImciStore {
 public:
  explicit ImciStore(ColumnIndexOptions options = ColumnIndexOptions())
      : options_(options) {}

  ColumnIndex* CreateIndex(std::shared_ptr<const Schema> schema);
  ColumnIndex* GetIndex(TableId table_id) const;
  std::vector<ColumnIndex*> All() const;
  const ColumnIndexOptions& options() const { return options_; }

 private:
  ColumnIndexOptions options_;
  mutable std::shared_mutex mu_;
  std::unordered_map<TableId, std::unique_ptr<ColumnIndex>> indexes_;
};

}  // namespace imci

#endif  // POLARDB_IMCI_IMCI_COLUMN_INDEX_H_
