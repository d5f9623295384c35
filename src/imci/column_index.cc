#include "imci/column_index.h"

#include <algorithm>

namespace imci {

ColumnIndex::ColumnIndex(std::shared_ptr<const Schema> schema,
                         ColumnIndexOptions options)
    : schema_(std::move(schema)), options_(options) {
  col_to_pack_.assign(schema_->num_columns(), -1);
  for (int c = 0; c < schema_->num_columns(); ++c) {
    // The PK column is always part of the index (needed by compaction and
    // point reads); other columns opt in via the schema (§3.3).
    if (schema_->column(c).in_column_index || c == schema_->pk_col()) {
      col_to_pack_[c] = static_cast<int>(cols_.size());
      cols_.push_back(c);
    }
  }
  pk_pack_ = col_to_pack_[schema_->pk_col()];
}

int ColumnIndex::PackForColumn(int col) const { return col_to_pack_[col]; }

std::shared_ptr<RowGroup> ColumnIndex::EnsureGroup(size_t idx) {
  {
    std::shared_lock<std::shared_mutex> g(groups_mu_);
    if (idx < groups_.size() && groups_[idx]) return groups_[idx];
  }
  std::unique_lock<std::shared_mutex> g(groups_mu_);
  while (groups_.size() <= idx) {
    const Rid base = groups_.size() * options_.row_group_size;
    groups_.push_back(std::make_shared<RowGroup>(
        *schema_, cols_, options_.row_group_size, base));
  }
  return groups_[idx];
}

size_t ColumnIndex::num_groups() const {
  std::shared_lock<std::shared_mutex> g(groups_mu_);
  return groups_.size();
}

std::shared_ptr<RowGroup> ColumnIndex::group(size_t i) const {
  std::shared_lock<std::shared_mutex> g(groups_mu_);
  return i < groups_.size() ? groups_[i] : nullptr;
}

uint32_t ColumnIndex::GroupUsed(size_t i) const {
  const Rid next = next_rid();
  const uint64_t base = static_cast<uint64_t>(i) * options_.row_group_size;
  if (next <= base) return 0;
  return static_cast<uint32_t>(
      std::min<uint64_t>(next - base, options_.row_group_size));
}

Status ColumnIndex::Insert(const Row& row, Vid vid) {
  // §4.2 insert: (1) allocate an empty RID from the partial packs,
  // (2) record PK->RID in the locator, (3) write the row data,
  // (4) publish the insert VID (commit sequence number).
  const Rid rid = next_rid_.fetch_add(1, std::memory_order_acq_rel);
  auto group = EnsureGroup(rid / options_.row_group_size);
  const uint32_t off = OffsetForRid(rid);
  const int64_t pk = AsInt(row[schema_->pk_col()]);
  locator_.Put(pk, rid);
  group->WriteRow(off, row);
  group->NoteInsertVid(vid);
  group->SetInsertVid(off, vid);
  return Status::OK();
}

Status ColumnIndex::Delete(int64_t pk, Vid vid) {
  Rid rid;
  IMCI_RETURN_NOT_OK(locator_.Get(pk, &rid));
  auto group = GroupForRid(rid);
  if (!group) return Status::NotFound("group reclaimed");
  group->SetDeleteVid(OffsetForRid(rid), vid);
  locator_.Erase(pk);
  return Status::OK();
}

Status ColumnIndex::Update(const Row& new_row, Vid vid) {
  const int64_t pk = AsInt(new_row[schema_->pk_col()]);
  // Out-of-place (§4.2): logical delete of the old version, then append.
  Status s = Delete(pk, vid);
  if (!s.ok() && !s.IsNotFound()) return s;
  return Insert(new_row, vid);
}

Rid ColumnIndex::PreAllocate(uint32_t n) {
  const Rid first = next_rid_.fetch_add(n, std::memory_order_acq_rel);
  EnsureGroup((first + n - 1) / options_.row_group_size);
  return first;
}

Status ColumnIndex::PreWrite(Rid rid, const Row& row) {
  auto group = GroupForRid(rid);
  if (!group) return Status::NotFound("group");
  const uint32_t off = OffsetForRid(rid);
  group->WriteRow(off, row);
  // Both VIDs stay invalid: the row is invisible to every snapshot (§5.5).
  group->SetDeleteVid(off, kMaxVid);
  return Status::OK();
}

Status ColumnIndex::RectifyInsert(Rid rid, int64_t pk, Vid vid) {
  auto group = GroupForRid(rid);
  if (!group) return Status::NotFound("group");
  const uint32_t off = OffsetForRid(rid);
  locator_.Put(pk, rid);
  group->NoteInsertVid(vid);
  group->SetInsertVid(off, vid);
  return Status::OK();
}

Status ColumnIndex::LookupByPk(int64_t pk, Vid read_vid, Row* row) const {
  Rid rid;
  if (locator_.Get(pk, &rid).ok()) {
    auto group = GroupForRid(rid);
    if (group && group->Visible(OffsetForRid(rid), read_vid)) {
      return MaterializeRow(rid, row);
    }
  }
  // Older versions are not in the locator. At most one version of a PK is
  // visible at any read view, so the first visible match is the answer.
  const size_t n = num_groups();
  for (size_t i = 0; i < n; ++i) {
    auto g = group(i);
    if (!g || g->IntRangeDisjoint(pk_pack_, true, pk, true, pk)) continue;
    const int64_t* pks = g->int_data(pk_pack_);
    const uint32_t used = GroupUsed(i);
    for (uint32_t off = 0; off < used; ++off) {
      // Visibility first: it publishes the slot's data (acquire).
      if (g->Visible(off, read_vid) && pks[off] == pk) {
        return MaterializeRow(g->base_rid() + off, row);
      }
    }
  }
  return Status::NotFound("no version visible");
}

Status ColumnIndex::MaterializeRow(Rid rid, Row* row) const {
  auto group = GroupForRid(rid);
  if (!group) return Status::NotFound("group reclaimed");
  const uint32_t off = OffsetForRid(rid);
  row->assign(schema_->num_columns(), Value{});
  for (size_t p = 0; p < cols_.size(); ++p) {
    (*row)[cols_[p]] = group->GetValue(static_cast<int>(p), off);
  }
  return Status::OK();
}

std::vector<size_t> ColumnIndex::FindUnderflowGroups(Vid read_vid) const {
  std::vector<size_t> out;
  const size_t n = num_groups();
  for (size_t i = 0; i < n; ++i) {
    auto g = group(i);
    if (!g || g->retired()) continue;
    const uint32_t used = GroupUsed(i);
    if (used < options_.row_group_size) continue;  // partial group: skip
    const uint32_t visible = g->CountVisible(used, read_vid);
    if (uint64_t{visible} * 2 < used) out.push_back(i);
  }
  return out;
}

Status ColumnIndex::CompactGroup(size_t gid, Vid vid, uint32_t* moved) {
  auto g = group(gid);
  if (!g || g->retired()) return Status::NotFound("group");
  const uint32_t used = GroupUsed(gid);
  uint32_t count = 0;
  Row row;
  for (uint32_t off = 0; off < used; ++off) {
    if (!g->Visible(off, vid)) continue;
    const Rid old_rid = g->base_rid() + off;
    IMCI_RETURN_NOT_OK(MaterializeRow(old_rid, &row));
    // Re-append as an update operation: the old version stays readable for
    // snapshots pinned before `vid` (non-blocking compaction, §4.3).
    const int64_t pk = AsInt(row[schema_->pk_col()]);
    const Rid new_rid = next_rid_.fetch_add(1, std::memory_order_acq_rel);
    auto ng = EnsureGroup(new_rid / options_.row_group_size);
    const uint32_t noff = OffsetForRid(new_rid);
    ng->WriteRow(noff, row);
    // Preserve the original insert visibility so readers between the row's
    // insert VID and `vid` are unaffected (they still see the old copy; new
    // copy becomes the visible one from `vid` on).
    ng->NoteInsertVid(vid);
    ng->SetInsertVid(noff, vid);
    g->SetDeleteVid(off, vid);
    locator_.Put(pk, new_rid);
    ++count;
  }
  g->Retire();
  if (moved) *moved = count;
  return Status::OK();
}

size_t ColumnIndex::ReclaimRetired(Vid watermark) {
  size_t freed = 0;
  std::unique_lock<std::shared_mutex> g(groups_mu_);
  for (auto& grp : groups_) {
    if (!grp || !grp->retired()) continue;
    // Safe once no read view at or above the watermark can see a version in
    // the group: compaction deleted every row by its VID, so the group goes
    // once each published row's delete VID is at or below the watermark.
    // Invisibility *at* the watermark is not enough — a row inserted above
    // it stays visible to a newer view until its delete VID.
    bool readable = false;
    const uint32_t cap = grp->capacity();
    for (uint32_t off = 0; off < cap && !readable; ++off) {
      readable = grp->InsertVid(off) != kInvalidVid &&
                 grp->DeleteVid(off) > watermark;
    }
    if (!readable) {
      grp.reset();
      ++freed;
    }
  }
  return freed;
}

size_t ColumnIndex::DropInsertVidMaps(Vid watermark) {
  size_t dropped = 0;
  const size_t n = num_groups();
  for (size_t i = 0; i < n; ++i) {
    auto g = group(i);
    if (g && GroupUsed(i) == options_.row_group_size &&
        g->MaybeDropInsertVids(watermark)) {
      ++dropped;
    }
  }
  return dropped;
}

uint64_t ColumnIndex::visible_rows(Vid read_vid) const {
  uint64_t total = 0;
  const size_t n = num_groups();
  for (size_t i = 0; i < n; ++i) {
    auto g = group(i);
    if (!g) continue;
    total += g->CountVisible(GroupUsed(i), read_vid);
  }
  return total;
}

ColumnIndex* ImciStore::CreateIndex(std::shared_ptr<const Schema> schema) {
  std::unique_lock<std::shared_mutex> g(mu_);
  auto& slot = indexes_[schema->table_id()];
  slot = std::make_unique<ColumnIndex>(std::move(schema), options_);
  return slot.get();
}

ColumnIndex* ImciStore::GetIndex(TableId table_id) const {
  std::shared_lock<std::shared_mutex> g(mu_);
  auto it = indexes_.find(table_id);
  return it == indexes_.end() ? nullptr : it->second.get();
}

std::vector<ColumnIndex*> ImciStore::All() const {
  std::shared_lock<std::shared_mutex> g(mu_);
  std::vector<ColumnIndex*> v;
  for (auto& [id, idx] : indexes_) v.push_back(idx.get());
  return v;
}

}  // namespace imci
