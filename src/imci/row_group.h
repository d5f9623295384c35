#ifndef POLARDB_IMCI_IMCI_ROW_GROUP_H_
#define POLARDB_IMCI_IMCI_ROW_GROUP_H_

#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/schema.h"

namespace imci {

/// Statistics kept per Data Pack (one column within one row group), the
/// paper's "Pack Meta" (§4.1): min/max, sum, counts and a small value sample
/// (standing in for the sampling histogram). Scans consult min/max to skip
/// Packs that cannot satisfy a predicate.
struct PackMeta {
  int64_t min_i = std::numeric_limits<int64_t>::max();
  int64_t max_i = std::numeric_limits<int64_t>::min();
  double min_d = std::numeric_limits<double>::infinity();
  double max_d = -std::numeric_limits<double>::infinity();
  std::string min_s, max_s;
  bool has_value = false;
  uint64_t null_count = 0;
  uint64_t value_count = 0;
  double sum = 0;
  std::vector<Value> sample;  // reservoir sample for optimizer statistics
};

/// One column's storage inside a row group — a "Data Pack". Packs stay plain
/// arrays in memory, written append-only and read in place by scans; the
/// codecs in compression.h encode them only in the checkpoint image.
struct ColumnPack {
  DataType type = DataType::kInt64;
  std::vector<int64_t> ints;
  std::vector<double> dbls;
  std::vector<std::string> strs;
  std::vector<uint8_t> nulls;  // one byte per row: safe concurrent slots
};

/// A row group (§4.1): `capacity` rows, one Data Pack per indexed column,
/// plus the insert-VID and delete-VID maps that implement snapshot isolation
/// over append-only storage. Full-size groups are immutable (only delete
/// VIDs may still change); the last, partial group is filled append-only.
///
/// Concurrency: distinct row slots may be written by different Phase#2
/// workers simultaneously (each RID is owned by exactly one writer);
/// publication is via the insert VID (release store) which readers check
/// first (acquire load). Delete VIDs are CAS-set.
class RowGroup {
 public:
  /// `cols` maps pack ordinal -> schema column ordinal.
  RowGroup(const Schema& schema, std::vector<int> cols, uint32_t capacity,
           Rid base_rid);

  uint32_t capacity() const { return capacity_; }
  Rid base_rid() const { return base_rid_; }
  int num_packs() const { return static_cast<int>(cols_.size()); }

  /// Writes the indexed columns of `row` into slot `offset`. Does not make
  /// the row visible; call SetInsertVid afterwards.
  void WriteRow(uint32_t offset, const Row& row);

  void SetInsertVid(uint32_t offset, Vid vid) {
    insert_vids_[offset].store(vid, std::memory_order_release);
  }
  void SetDeleteVid(uint32_t offset, Vid vid) {
    delete_vids_[offset].store(vid, std::memory_order_release);
  }
  Vid InsertVid(uint32_t offset) const {
    if (insert_vids_dropped_.load(std::memory_order_acquire)) return 0;
    return insert_vids_[offset].load(std::memory_order_acquire);
  }
  Vid DeleteVid(uint32_t offset) const {
    return delete_vids_[offset].load(std::memory_order_acquire);
  }

  /// MVCC visibility check (§4.1): a version is visible at `read_vid` iff
  /// insert_vid <= read_vid < delete_vid (and the slot was published).
  bool Visible(uint32_t offset, Vid read_vid) const {
    const Vid iv = InsertVid(offset);
    if (iv == kInvalidVid || iv > read_vid) return false;
    return DeleteVid(offset) > read_vid;
  }

  /// Direct lane accessors for the vectorized scan.
  const int64_t* int_data(int pack) const { return packs_[pack].ints.data(); }
  const double* double_data(int pack) const {
    return packs_[pack].dbls.data();
  }
  const std::string& str_at(int pack, uint32_t offset) const {
    return packs_[pack].strs[offset];
  }
  bool is_null(int pack, uint32_t offset) const {
    return packs_[pack].nulls[offset] != 0;
  }
  DataType pack_type(int pack) const { return packs_[pack].type; }
  Value GetValue(int pack, uint32_t offset) const;

  /// A copy of pack `pack`'s meta, taken under its lock: Phase#2 appliers
  /// update a partial group's meta while scans and statistics consult it.
  PackMeta meta(int pack) const;
  /// True when integer pack `pack` holds values and none of them can lie in
  /// [lo, hi] (each bound applies only when its flag is set). Reads the meta
  /// under its lock, without copying it.
  bool IntRangeDisjoint(int pack, bool has_lo, int64_t lo, bool has_hi,
                        int64_t hi) const;

  /// Drops the insert-VID map once no read view can be older than every
  /// insert in the group (§4.3 memory-footprint optimization): every insert
  /// lies below `watermark`, the node's SnapshotRegistry bound. The caller
  /// only offers full groups (ColumnIndex::DropInsertVidMaps).
  bool MaybeDropInsertVids(Vid watermark);
  bool insert_vids_dropped() const {
    return insert_vids_dropped_.load(std::memory_order_acquire);
  }

  /// Valid (not deleted, published) rows among the first `used` slots at
  /// `read_vid` — used by compaction's under-flow detection.
  uint32_t CountVisible(uint32_t used, Vid read_vid) const;

  /// Marks the group retired (picked by compaction; awaiting reclamation).
  void Retire() { retired_.store(true, std::memory_order_release); }
  bool retired() const { return retired_.load(std::memory_order_acquire); }

  /// Records `v` in the group's maximum insert VID (for insert-map
  /// dropping).
  void NoteInsertVid(Vid v);

  // Checkpoint support: raw access to VID arrays.
  const std::atomic<Vid>* raw_insert_vids() const {
    return insert_vids_.get();
  }
  const std::atomic<Vid>* raw_delete_vids() const {
    return delete_vids_.get();
  }
  std::atomic<Vid>* raw_insert_vids() { return insert_vids_.get(); }
  std::atomic<Vid>* raw_delete_vids() { return delete_vids_.get(); }
  ColumnPack* mutable_pack(int pack) { return &packs_[pack]; }
  /// Recomputes all pack metas over the first `used` slots (checkpoint load).
  void RebuildMeta(uint32_t used);

 private:
  void UpdateMeta(int pack, const Value& v);

  const Schema* schema_;
  std::vector<int> cols_;
  uint32_t capacity_;
  Rid base_rid_;
  std::vector<ColumnPack> packs_;
  std::vector<PackMeta> metas_;
  mutable std::mutex meta_mu_;
  std::unique_ptr<std::atomic<Vid>[]> insert_vids_;
  std::unique_ptr<std::atomic<Vid>[]> delete_vids_;
  std::atomic<Vid> max_insert_vid_{0};
  std::atomic<bool> insert_vids_dropped_{false};
  std::atomic<bool> retired_{false};
};

}  // namespace imci

#endif  // POLARDB_IMCI_IMCI_ROW_GROUP_H_
