#include "imci/row_group.h"

#include <algorithm>

namespace imci {

RowGroup::RowGroup(const Schema& schema, std::vector<int> cols,
                   uint32_t capacity, Rid base_rid)
    : schema_(&schema),
      cols_(std::move(cols)),
      capacity_(capacity),
      base_rid_(base_rid),
      insert_vids_(new std::atomic<Vid>[capacity]),
      delete_vids_(new std::atomic<Vid>[capacity]) {
  packs_.resize(cols_.size());
  metas_.resize(cols_.size());
  for (size_t p = 0; p < cols_.size(); ++p) {
    ColumnPack& pack = packs_[p];
    pack.type = schema.column(cols_[p]).type;
    pack.nulls.assign(capacity, 0);
    switch (pack.type) {
      case DataType::kInt64:
      case DataType::kInt32:
      case DataType::kDate:
        pack.ints.assign(capacity, 0);
        break;
      case DataType::kDouble:
        pack.dbls.assign(capacity, 0.0);
        break;
      case DataType::kString:
        pack.strs.assign(capacity, std::string());
        break;
    }
  }
  for (uint32_t i = 0; i < capacity; ++i) {
    insert_vids_[i].store(kInvalidVid, std::memory_order_relaxed);
    delete_vids_[i].store(kMaxVid, std::memory_order_relaxed);
  }
}

void RowGroup::WriteRow(uint32_t offset, const Row& row) {
  for (size_t p = 0; p < cols_.size(); ++p) {
    ColumnPack& pack = packs_[p];
    const Value& v = row[cols_[p]];
    if (IsNull(v)) {
      pack.nulls[offset] = 1;
    } else {
      pack.nulls[offset] = 0;
      switch (pack.type) {
        case DataType::kInt64:
        case DataType::kInt32:
        case DataType::kDate:
          pack.ints[offset] = AsInt(v);
          break;
        case DataType::kDouble:
          pack.dbls[offset] = AsDouble(v);
          break;
        case DataType::kString:
          pack.strs[offset] = AsString(v);
          break;
      }
    }
    UpdateMeta(static_cast<int>(p), v);
  }
}

Value RowGroup::GetValue(int pack, uint32_t offset) const {
  const ColumnPack& p = packs_[pack];
  if (p.nulls[offset]) return Value{};
  switch (p.type) {
    case DataType::kInt64:
    case DataType::kInt32:
    case DataType::kDate:
      return p.ints[offset];
    case DataType::kDouble:
      return p.dbls[offset];
    case DataType::kString:
      return p.strs[offset];
  }
  return Value{};
}

PackMeta RowGroup::meta(int pack) const {
  std::lock_guard<std::mutex> g(meta_mu_);
  return metas_[pack];
}

bool RowGroup::IntRangeDisjoint(int pack, bool has_lo, int64_t lo,
                                bool has_hi, int64_t hi) const {
  std::lock_guard<std::mutex> g(meta_mu_);
  const PackMeta& m = metas_[pack];
  if (!m.has_value) return false;
  return (has_lo && m.max_i < lo) || (has_hi && m.min_i > hi);
}

void RowGroup::UpdateMeta(int pack, const Value& v) {
  std::lock_guard<std::mutex> g(meta_mu_);
  PackMeta& m = metas_[pack];
  if (IsNull(v)) {
    m.null_count++;
    return;
  }
  m.value_count++;
  m.has_value = true;
  switch (packs_[pack].type) {
    case DataType::kInt64:
    case DataType::kInt32:
    case DataType::kDate: {
      int64_t x = AsInt(v);
      m.min_i = std::min(m.min_i, x);
      m.max_i = std::max(m.max_i, x);
      m.sum += static_cast<double>(x);
      break;
    }
    case DataType::kDouble: {
      double x = AsDouble(v);
      m.min_d = std::min(m.min_d, x);
      m.max_d = std::max(m.max_d, x);
      m.sum += x;
      break;
    }
    case DataType::kString: {
      const std::string& x = AsString(v);
      if (m.min_s.empty() && m.max_s.empty() && m.value_count == 1) {
        m.min_s = m.max_s = x;
      } else {
        if (x < m.min_s) m.min_s = x;
        if (x > m.max_s) m.max_s = x;
      }
      break;
    }
  }
  // Reservoir-ish sample: keep the first 64 values.
  if (m.sample.size() < 64) m.sample.push_back(v);
}

bool RowGroup::MaybeDropInsertVids(Vid watermark) {
  if (insert_vids_dropped_.load(std::memory_order_acquire)) return true;
  if (max_insert_vid_.load(std::memory_order_acquire) >= watermark) {
    return false;
  }
  // Every published insert is older than every possible read view: the
  // insert check always passes, so the map can be discarded. Unpublished
  // slots (kInvalidVid) in a full group only exist for aborted pre-commit
  // residue, which compaction eliminates before retiring the group; we keep
  // the map if any slot is unpublished.
  for (uint32_t i = 0; i < capacity_; ++i) {
    if (insert_vids_[i].load(std::memory_order_relaxed) == kInvalidVid) {
      return false;
    }
  }
  insert_vids_dropped_.store(true, std::memory_order_release);
  return true;
}

uint32_t RowGroup::CountVisible(uint32_t used, Vid read_vid) const {
  uint32_t n = 0;
  for (uint32_t i = 0; i < used && i < capacity_; ++i) {
    if (Visible(i, read_vid)) ++n;
  }
  return n;
}

void RowGroup::RebuildMeta(uint32_t used) {
  for (size_t p = 0; p < packs_.size(); ++p) {
    {
      std::lock_guard<std::mutex> g(meta_mu_);
      metas_[p] = PackMeta();
    }
    for (uint32_t i = 0; i < used; ++i) {
      UpdateMeta(static_cast<int>(p), GetValue(static_cast<int>(p), i));
    }
  }
  Vid max_iv = 0;
  for (uint32_t i = 0; i < used; ++i) {
    Vid iv = insert_vids_[i].load(std::memory_order_relaxed);
    if (iv != kInvalidVid) max_iv = std::max(max_iv, iv);
  }
  NoteInsertVid(max_iv);
}

void RowGroup::NoteInsertVid(Vid v) {
  Vid cur = max_insert_vid_.load(std::memory_order_relaxed);
  while (v > cur && !max_insert_vid_.compare_exchange_weak(
                        cur, v, std::memory_order_release)) {
  }
}

}  // namespace imci
