#include "exec/operators.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <string_view>

#include "common/coding.h"
#include "exec/merge.h"

namespace imci {

void CompactBatch(Batch* batch, const std::vector<uint8_t>& mask) {
  size_t kept = 0;
  for (size_t i = 0; i < batch->rows; ++i) {
    if (!mask[i]) continue;
    if (kept != i) {
      for (auto& col : batch->cols) {
        col.nulls[kept] = col.nulls[i];
        switch (col.type) {
          case DataType::kDouble: col.dbls[kept] = col.dbls[i]; break;
          case DataType::kString: col.strs[kept] = std::move(col.strs[i]); break;
          default: col.ints[kept] = col.ints[i]; break;
        }
      }
    }
    ++kept;
  }
  for (auto& col : batch->cols) {
    col.nulls.resize(kept);
    switch (col.type) {
      case DataType::kDouble: col.dbls.resize(kept); break;
      case DataType::kString: col.strs.resize(kept); break;
      default: col.ints.resize(kept); break;
    }
  }
  batch->rows = kept;
}

ColumnScanOp::ColumnScanOp(ColumnIndex* index, std::vector<int> cols,
                           ExprRef filter, ScanPartition part)
    : index_(index), cols_(std::move(cols)), filter_(std::move(filter)),
      part_(part) {
  packs_.reserve(cols_.size());
  for (int c : cols_) {
    packs_.push_back(index_->PackForColumn(c));
    out_types_.push_back(index_->schema().column(c).type);
  }
  if (part_.col >= 0) part_pack_ = index_->PackForColumn(part_.col);
  std::vector<IntBound> bounds;
  ExtractIntBounds(filter_, &bounds);
  for (const IntBound& b : bounds) {
    if (b.col >= 0 && b.col < static_cast<int>(packs_.size())) {
      bounds_.push_back(b);
    }
  }
}

bool ColumnScanOp::GroupPrunable(const RowGroup& g) const {
  // Disjoint ranges -> no row in this group can satisfy the conjunct.
  for (const IntBound& b : bounds_) {
    if (g.IntRangeDisjoint(packs_[b.col], b.has_lo, b.lo, b.has_hi, b.hi)) {
      return true;
    }
  }
  return false;
}

bool ColumnScanOp::PartitionSkipsGroup(const RowGroup& g) const {
  return part_pack_ >= 0 &&
         g.IntRangeDisjoint(part_pack_, part_.has_lo, part_.lo, part_.has_hi,
                            part_.hi);
}

Status ColumnScanOp::ScanGroup(const RowGroup& g, uint32_t used, Vid read_vid,
                               RowSet* out) const {
  Batch batch = Batch::Make(out_types_);
  auto flush = [&]() -> Status {
    if (batch.rows == 0) return Status::OK();
    if (filter_) {
      std::vector<uint8_t> mask;
      IMCI_RETURN_NOT_OK(filter_->EvalMask(batch, &mask));
      CompactBatch(&batch, mask);
    }
    if (batch.rows > 0) out->batches.push_back(std::move(batch));
    batch = Batch::Make(out_types_);
    return Status::OK();
  };
  for (uint32_t off = 0; off < used; ++off) {
    if (!g.Visible(off, read_vid)) continue;
    if (part_pack_ >= 0) {
      // Fragment partition check: a NULL partition key belongs to no range
      // (the partition column is a PK in practice, so this cannot drop rows).
      if (g.is_null(part_pack_, off)) continue;
      const int64_t pv = g.int_data(part_pack_)[off];
      if (part_.has_lo && pv < part_.lo) continue;
      if (part_.has_hi && pv > part_.hi) continue;
    }
    for (size_t c = 0; c < packs_.size(); ++c) {
      const int p = packs_[c];
      ColumnVector& dst = batch.cols[c];
      if (g.is_null(p, off)) {
        dst.AppendNull();
      } else {
        switch (dst.type) {
          case DataType::kDouble: dst.AppendDouble(g.double_data(p)[off]); break;
          case DataType::kString: dst.AppendString(g.str_at(p, off)); break;
          default: dst.AppendInt(g.int_data(p)[off]); break;
        }
      }
    }
    if (++batch.rows >= Batch::kDefaultCapacity) IMCI_RETURN_NOT_OK(flush());
  }
  return flush();
}

Status ColumnScanOp::Execute(ExecContext* ctx, RowSet* out) {
  out->types = out_types_;
  if (part_.col >= 0 && part_pack_ < 0) {
    return Status::NotSupported("partition column has no pack");
  }
  const size_t ngroups = index_->num_groups();
  const Vid read_vid = ctx->read_vid;
  const int workers = std::max(1, ctx->parallelism);
  std::vector<RowSet> partials(workers);
  std::atomic<size_t> next_group{0};
  Status statuses[64];
  const int w = std::min(workers, 64);
  const size_t morsel =
      static_cast<size_t>(std::max(1, ctx->morsel_row_groups));
  // Morsel-driven parallel scan: workers claim morsels — runs of consecutive
  // row groups ("Data Packs in a non-interleaved manner") — from a shared
  // dispatch counter. A fast worker claims more morsels than a slow one, so
  // skew balances without a static assignment, and the pool's deque stealing
  // covers workers blocked in other queries.
  ParallelFor(ctx->pool, w, [&](int wi) {
    for (;;) {
      const size_t start = next_group.fetch_add(morsel,
                                                std::memory_order_relaxed);
      if (start >= ngroups) return;
      const size_t end = std::min(ngroups, start + morsel);
      for (size_t gid = start; gid < end; ++gid) {
        // A retired (compacted) group stays readable below its compaction
        // VID until reclaimed; the per-row visibility check filters it.
        auto g = index_->group(gid);
        if (!g) continue;
        const uint32_t used = index_->GroupUsed(gid);
        if (used == 0) continue;
        // Partition skip is correctness-driven, not gated on the pruning
        // ablation toggle, and not counted in the pruning metrics.
        if (PartitionSkipsGroup(*g)) continue;
        if (ctx->pruning_enabled && GroupPrunable(*g)) {
          groups_pruned_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        groups_scanned_.fetch_add(1, std::memory_order_relaxed);
        Status s = ScanGroup(*g, used, read_vid, &partials[wi]);
        if (!s.ok()) {
          statuses[wi] = s;
          return;
        }
      }
    }
  });
  for (int i = 0; i < w; ++i) IMCI_RETURN_NOT_OK(statuses[i]);
  for (RowSet& p : partials) {
    for (Batch& b : p.batches) out->batches.push_back(std::move(b));
  }
  return Status::OK();
}

RowScanOp::RowScanOp(const RowTable* table, std::vector<int> cols,
                     ExprRef filter, IndexHint hint)
    : table_(table), cols_(std::move(cols)), filter_(std::move(filter)),
      hint_(hint) {
  for (int c : cols_) out_types_.push_back(table_->schema().column(c).type);
}

void RowScanOp::AppendRow(const Row& row, Batch* batch) const {
  for (size_t c = 0; c < cols_.size(); ++c) {
    batch->cols[c].AppendValue(row[cols_[c]]);
  }
  batch->rows++;
}

Status RowScanOp::Execute(ExecContext* ctx, RowSet* out) {
  // Every row read resolves at the pinned snapshot: RwNode::ExecuteSnapshot
  // pins a read view, RoNode::ExecuteRow the applied commit point.
  const Vid read_vid = ctx->read_vid;
  out->types = out_types_;
  Batch batch = Batch::Make(out_types_);
  Status inner;
  auto flush = [&]() -> Status {
    if (batch.rows == 0) return Status::OK();
    if (filter_) {
      std::vector<uint8_t> mask;
      IMCI_RETURN_NOT_OK(filter_->EvalMask(batch, &mask));
      CompactBatch(&batch, mask);
    }
    if (batch.rows > 0) out->batches.push_back(std::move(batch));
    batch = Batch::Make(out_types_);
    return Status::OK();
  };
  auto visit = [&](int64_t /*pk*/, const Row& row) {
    AppendRow(row, &batch);
    // Small batches: the row engine is a row-at-a-time interpreter with
    // early materialization; large vectors would misrepresent it (§2.1).
    if (batch.rows >= 128) {
      inner = flush();
      if (!inner.ok()) return false;
    }
    return true;
  };
  if (hint_.col < 0) {
    IMCI_RETURN_NOT_OK(table_->SnapshotScan(read_vid, visit));
  } else if (hint_.col == table_->schema().pk_col()) {
    IMCI_RETURN_NOT_OK(
        table_->SnapshotScanRange(read_vid, hint_.lo, hint_.hi, visit));
  } else {
    std::vector<int64_t> pks;
    IMCI_RETURN_NOT_OK(table_->SnapshotIndexLookupRange(
        read_vid, hint_.col, hint_.lo, hint_.hi, &pks));
    Row row;
    for (int64_t pk : pks) {
      Status got = table_->SnapshotGet(read_vid, pk, &row);
      if (got.IsNotFound()) continue;  // row vanished between lookup and get
      IMCI_RETURN_NOT_OK(got);
      if (!visit(pk, row)) break;
    }
  }
  IMCI_RETURN_NOT_OK(inner);
  return flush();
}

FilterOp::FilterOp(PhysOpRef child, ExprRef pred)
    : child_(std::move(child)), pred_(std::move(pred)) {
  out_types_ = child_->out_types();
}

Status FilterOp::Execute(ExecContext* ctx, RowSet* out) {
  RowSet in;
  IMCI_RETURN_NOT_OK(child_->Execute(ctx, &in));
  out->types = out_types_;
  for (Batch& b : in.batches) {
    std::vector<uint8_t> mask;
    IMCI_RETURN_NOT_OK(pred_->EvalMask(b, &mask));
    CompactBatch(&b, mask);
    if (b.rows > 0) out->batches.push_back(std::move(b));
  }
  return Status::OK();
}

ProjectOp::ProjectOp(PhysOpRef child, std::vector<ExprRef> exprs)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  for (const ExprRef& e : exprs_) out_types_.push_back(e->out_type);
}

Status ProjectOp::Execute(ExecContext* ctx, RowSet* out) {
  RowSet in;
  IMCI_RETURN_NOT_OK(child_->Execute(ctx, &in));
  out->types = out_types_;
  out->batches.resize(in.batches.size());
  std::atomic<bool> failed{false};
  const int n = static_cast<int>(in.batches.size());
  ParallelFor(ctx->pool, n, [&](int i) {
    Batch& src = in.batches[i];
    Batch dst;
    dst.rows = src.rows;
    dst.cols.reserve(exprs_.size());
    for (const ExprRef& e : exprs_) {
      ColumnVector v(e->out_type);
      if (!e->Eval(src, &v).ok()) {
        failed.store(true);
        return;
      }
      dst.cols.push_back(std::move(v));
    }
    out->batches[i] = std::move(dst);
  });
  if (failed.load()) return Status::Internal("projection failed");
  return Status::OK();
}

namespace {

/// The one hash-key encoding, shared by join build and probe, group keys and
/// COUNT DISTINCT: appends the bytes of non-NULL `v[row]`, equal exactly when
/// the values compare equal. Integer-family values are fixed64; doubles are
/// their bit pattern, with -0.0 folded into +0.0 and every NaN into one
/// pattern (CompareValues treats both pairs as equal); strings are
/// length-prefixed.
void AppendKeyBytes(const ColumnVector& v, size_t row, std::string* out) {
  switch (v.type) {
    case DataType::kDouble: {
      double d = v.dbls[row];
      if (d == 0.0) d = 0.0;
      if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
      PutFixed64(out, std::bit_cast<uint64_t>(d));
      break;
    }
    case DataType::kString:
      PutFixed32(out, static_cast<uint32_t>(v.strs[row].size()));
      out->append(v.strs[row]);
      break;
    default:
      PutFixed64(out, static_cast<uint64_t>(v.ints[row]));
      break;
  }
}

/// Encodes a join key; returns false when any key is NULL (SQL: NULL keys
/// never join).
bool EncodeKey(const Batch& b, const std::vector<int>& key_cols, size_t row,
               std::string* out) {
  out->clear();
  for (int c : key_cols) {
    const ColumnVector& v = b.cols[c];
    if (v.nulls[row]) return false;
    AppendKeyBytes(v, row, out);
  }
  return true;
}

/// Partition cap of both hash operators (workers beyond it share partitions).
constexpr int kMaxPartitions = 64;

/// Number of exchange partitions for a given worker count: the smallest
/// power of two >= workers, capped at kMaxPartitions (power of two so the
/// partition of a hash is a mask, and >= workers so every worker owns at
/// least one partition).
int ExchangePartitions(int workers) {
  int p = 1;
  while (p < std::min(workers, kMaxPartitions)) p <<= 1;
  return p;
}

/// A key's exchange partition: its top hash bits. KeyTable picks slots from
/// the low bits, so one partition's keys still spread over its whole table.
uint32_t PartitionOf(uint64_t hash, int partitions) {
  static_assert(kMaxPartitions <= 64, "six partition bits");
  return static_cast<uint32_t>(hash >> 58) &
         static_cast<uint32_t>(partitions - 1);
}

using Ref = std::pair<uint32_t, uint32_t>;  // (batch, row)

/// Open-addressing (linear probing) hash table over encoded keys. Each key's
/// bytes are appended to one buffer and its 64-bit hash is stored once, so
/// growing and merging never re-hash; keys get dense ids in insertion order.
/// Callers pass the hash in (KeyTable::Hash of the key bytes), so a key that
/// was hashed to pick its partition is not hashed again.
class KeyTable {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  static uint64_t Hash(std::string_view key) {
    return std::hash<std::string_view>{}(key);
  }

  uint32_t size() const { return static_cast<uint32_t>(hashes_.size()); }
  uint64_t hash(uint32_t id) const { return hashes_[id]; }
  std::string_view key(uint32_t id) const {
    const size_t begin = id == 0 ? 0 : ends_[id - 1];
    return std::string_view(bytes_).substr(begin, ends_[id] - begin);
  }

  /// The id of `key`, or kNone.
  uint32_t Find(std::string_view key, uint64_t hash) const {
    return slots_.empty() ? kNone : slots_[Probe(key, hash)].id;
  }

  /// The id of `key`, which is added with the next id when absent.
  uint32_t Insert(std::string_view key, uint64_t hash, bool* inserted) {
    if ((hashes_.size() + 1) * 2 > slots_.size()) Grow();
    Slot& slot = slots_[Probe(key, hash)];
    *inserted = slot.id == kNone;
    if (*inserted) {
      slot = {size(), Tag(hash)};
      hashes_.push_back(hash);
      bytes_.append(key);
      ends_.push_back(bytes_.size());
    }
    return slot.id;
  }

 private:
  struct Slot {
    uint32_t id = kNone;
    uint32_t tag = 0;  // high hash bits: most mismatches skip the key bytes
  };

  static uint32_t Tag(uint64_t hash) {
    return static_cast<uint32_t>(hash >> 32);
  }

  /// The slot holding `key`, or the empty slot that ends its probe run.
  size_t Probe(std::string_view key, uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    size_t s = hash & mask;
    while (slots_[s].id != kNone &&
           (slots_[s].tag != Tag(hash) || this->key(slots_[s].id) != key)) {
      s = (s + 1) & mask;
    }
    return s;
  }

  /// Doubles the slot array (load factor <= 1/2), re-placing ids by their
  /// stored hashes.
  void Grow() {
    slots_.assign(std::max<size_t>(16, slots_.size() * 2), Slot{});
    const size_t mask = slots_.size() - 1;
    for (uint32_t id = 0; id < size(); ++id) {
      size_t s = hashes_[id] & mask;
      while (slots_[s].id != kNone) s = (s + 1) & mask;
      slots_[s] = {id, Tag(hashes_[id])};
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint64_t> hashes_;  // per id
  std::vector<size_t> ends_;      // per id: end of its bytes in bytes_
  std::string bytes_;
};

}  // namespace

HashJoinOp::HashJoinOp(PhysOpRef build, PhysOpRef probe,
                       std::vector<int> build_keys,
                       std::vector<int> probe_keys, JoinType type)
    : build_(std::move(build)),
      probe_(std::move(probe)),
      build_keys_(std::move(build_keys)),
      probe_keys_(std::move(probe_keys)),
      type_(type) {
  out_types_ = probe_->out_types();
  if (type_ == JoinType::kInner || type_ == JoinType::kLeft) {
    for (DataType t : build_->out_types()) out_types_.push_back(t);
  }
}

Status HashJoinOp::Execute(ExecContext* ctx, RowSet* out) {
  RowSet build_set;
  IMCI_RETURN_NOT_OK(build_->Execute(ctx, &build_set));
  RowSet probe_set;
  IMCI_RETURN_NOT_OK(probe_->Execute(ctx, &probe_set));
  out->types = out_types_;

  // Build phase, partition-parallel with an exchange step. Stage 1
  // (scatter) runs per build batch: hash each row's key once and route
  // (hash, row) to its partition. Stage 2 runs per partition: partition p
  // inserts its keys into one KeyTable, walking batches in index order, and
  // appends each row to its key's ref chain — so a key's matches come out
  // in the exact (batch, row) order of the serial build, and results are
  // identical to parallelism=1.
  const int P = ExchangePartitions(std::max(1, ctx->parallelism));
  const int nbuild = static_cast<int>(build_set.batches.size());
  using Routed = std::vector<std::pair<uint64_t, uint32_t>>;  // (hash, row)
  std::vector<std::vector<Routed>> scatter(nbuild);  // [batch][partition]
  ParallelFor(ctx->pool, nbuild, [&](int bi) {
    const Batch& b = build_set.batches[bi];
    scatter[bi].resize(P);
    std::string key;
    for (uint32_t ri = 0; ri < b.rows; ++ri) {
      if (!EncodeKey(b, build_keys_, ri, &key)) continue;
      const uint64_t h = KeyTable::Hash(key);
      scatter[bi][PartitionOf(h, P)].emplace_back(h, ri);
    }
  });

  struct BuildPart {
    KeyTable keys;
    std::vector<uint32_t> head, tail;  // per key id: first and last ref
    std::vector<Ref> refs;             // build rows, in (batch, row) order
    std::vector<uint32_t> next;        // per ref: the key's next ref
  };
  std::vector<BuildPart> parts(P);
  ParallelFor(ctx->pool, P, [&](int p) {
    BuildPart& part = parts[p];
    std::string key;
    for (int bi = 0; bi < nbuild; ++bi) {
      for (const auto& [h, ri] : scatter[bi][p]) {
        EncodeKey(build_set.batches[bi], build_keys_, ri, &key);  // non-NULL
        bool inserted;
        const uint32_t id = part.keys.Insert(key, h, &inserted);
        const uint32_t r = static_cast<uint32_t>(part.refs.size());
        if (inserted) {
          part.head.push_back(r);
          part.tail.push_back(r);
        } else {
          part.next[part.tail[id]] = r;
          part.tail[id] = r;
        }
        part.refs.emplace_back(static_cast<uint32_t>(bi), ri);
        part.next.push_back(KeyTable::kNone);
      }
    }
  });
  scatter.clear();

  const int build_width =
      (type_ == JoinType::kInner || type_ == JoinType::kLeft)
          ? static_cast<int>(build_->out_types().size())
          : 0;
  const int probe_width = static_cast<int>(probe_->out_types().size());

  // Probe phase: parallel over probe batches, outputs kept in input order.
  std::vector<Batch> results(probe_set.batches.size());
  const int n = static_cast<int>(probe_set.batches.size());
  ParallelFor(ctx->pool, n, [&](int pi) {
    const Batch& pb = probe_set.batches[pi];
    Batch outb = Batch::Make(out_types_);
    // Appends probe row `ri` joined with build row `m` (NULLs when null).
    auto emit = [&](uint32_t ri, const Ref* m) {
      for (int c = 0; c < probe_width; ++c) {
        outb.cols[c].AppendFrom(pb.cols[c], ri);
      }
      for (int c = 0; c < build_width; ++c) {
        if (m) {
          outb.cols[probe_width + c].AppendFrom(
              build_set.batches[m->first].cols[c], m->second);
        } else {
          outb.cols[probe_width + c].AppendNull();
        }
      }
      outb.rows++;
    };
    std::string k;
    for (uint32_t ri = 0; ri < pb.rows; ++ri) {
      const BuildPart* part = nullptr;
      uint32_t r = KeyTable::kNone;  // first matching ref
      if (EncodeKey(pb, probe_keys_, ri, &k)) {
        const uint64_t h = KeyTable::Hash(k);
        part = &parts[PartitionOf(h, P)];
        const uint32_t id = part->keys.Find(k, h);
        if (id != KeyTable::kNone) r = part->head[id];
      }
      switch (type_) {
        case JoinType::kInner:
        case JoinType::kLeft:
          if (r == KeyTable::kNone && type_ == JoinType::kLeft) {
            emit(ri, nullptr);
          }
          for (; r != KeyTable::kNone; r = part->next[r]) {
            emit(ri, &part->refs[r]);
          }
          break;
        case JoinType::kSemi:
          if (r != KeyTable::kNone) emit(ri, nullptr);
          break;
        case JoinType::kAnti:
          if (r == KeyTable::kNone) emit(ri, nullptr);
          break;
      }
    }
    results[pi] = std::move(outb);
  });
  for (Batch& b : results) {
    if (b.rows > 0) out->batches.push_back(std::move(b));
  }
  return Status::OK();
}

namespace {

/// Keeps in `*acc` the smaller (MIN) or larger (MAX) of non-NULL `x` and
/// `*acc`.
void FoldExtreme(AggKind kind, Value x, Value* acc) {
  const int sign = kind == AggKind::kMin ? -1 : 1;
  if (IsNull(*acc) || CompareValues(x, *acc) * sign > 0) *acc = std::move(x);
}

/// One hash partition of a HashAgg table: group keys plus flat accumulators
/// indexed [group * naggs + agg]. A group's values are not copied; the
/// group remembers the (batch, row) of its first input row.
struct AggSlice {
  KeyTable groups;
  std::vector<Ref> first_rows;
  std::vector<double> sums;     // SUM/AVG
  std::vector<int64_t> counts;  // COUNT(*), non-NULL counts, SUM_INT, distinct
  std::vector<Value> extremes;  // MIN/MAX
  /// COUNT DISTINCT values: the fixed64 accumulator index, then the value's
  /// key bytes. A value new to the set bumps that accumulator's count.
  KeyTable distinct;

  /// The id of group `key`, added with empty accumulators when new.
  uint32_t Group(std::string_view key, uint64_t hash, Ref first,
                 size_t naggs) {
    bool inserted;
    const uint32_t g = groups.Insert(key, hash, &inserted);
    if (inserted) {
      first_rows.push_back(first);
      sums.resize(sums.size() + naggs, 0.0);
      counts.resize(counts.size() + naggs, 0);
      extremes.resize(extremes.size() + naggs);
    }
    return g;
  }

  void AddDistinct(const std::string& key) {
    bool inserted;
    distinct.Insert(key, KeyTable::Hash(key), &inserted);
    if (inserted) counts[GetFixed64(key.data())]++;
  }
};

}  // namespace

HashAggOp::HashAggOp(PhysOpRef child, std::vector<int> group_cols,
                     std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)) {
  const auto& ct = child_->out_types();
  for (int c : group_cols_) out_types_.push_back(ct[c]);
  for (const AggSpec& a : aggs_) {
    switch (a.kind) {
      case AggKind::kCount:
      case AggKind::kCountStar:
      case AggKind::kCountDistinct:
      case AggKind::kSumInt:
        out_types_.push_back(DataType::kInt64);
        break;
      case AggKind::kMin:
      case AggKind::kMax:
        out_types_.push_back(a.arg->out_type);
        break;
      default:
        out_types_.push_back(DataType::kDouble);
        break;
    }
  }
}

Status HashAggOp::Execute(ExecContext* ctx, RowSet* out) {
  RowSet in;
  IMCI_RETURN_NOT_OK(child_->Execute(ctx, &in));
  out->types = out_types_;

  const size_t naggs = aggs_.size();
  const int workers = std::max(1, std::min(ctx->parallelism, kMaxPartitions));
  const int P = ExchangePartitions(workers);
  // partials[w][p]: worker w's groups whose hash falls in partition p.
  std::vector<std::vector<AggSlice>> partials(workers);
  const int nb = static_cast<int>(in.batches.size());
  std::atomic<int> next_batch{0};
  std::atomic<bool> failed{false};

  // Partial aggregation: thread-local tables, no synchronization. Each
  // worker partitions at the source: a row's key hash picks the slice it
  // aggregates into.
  ParallelFor(ctx->pool, workers, [&](int wi) {
    std::vector<AggSlice>& local = partials[wi];
    local.resize(P);
    std::vector<ColumnVector> evaluated(naggs);  // reused across batches
    std::vector<const ColumnVector*> args(naggs, nullptr);
    std::string key, dkey;
    for (;;) {
      const int bi = next_batch.fetch_add(1, std::memory_order_relaxed);
      if (bi >= nb) return;
      const Batch& b = in.batches[bi];
      // Evaluate agg arguments once per batch; plain columns are read in
      // place.
      for (size_t a = 0; a < naggs; ++a) {
        const ExprRef& e = aggs_[a].arg;
        if (!e) continue;
        if (e->kind == ExprKind::kCol) {
          args[a] = &b.cols[e->col];
          continue;
        }
        evaluated[a].Clear();
        if (!e->Eval(b, &evaluated[a]).ok()) {
          failed.store(true);
          return;
        }
        args[a] = &evaluated[a];
      }
      for (uint32_t ri = 0; ri < b.rows; ++ri) {
        key.clear();
        for (int c : group_cols_) {
          const ColumnVector& v = b.cols[c];
          key.push_back(v.nulls[ri] ? 'N' : 'V');
          if (!v.nulls[ri]) AppendKeyBytes(v, ri, &key);
        }
        const uint64_t h = KeyTable::Hash(key);
        AggSlice& s = local[PartitionOf(h, P)];
        const size_t base =
            s.Group(key, h, {static_cast<uint32_t>(bi), ri}, naggs) * naggs;
        for (size_t a = 0; a < naggs; ++a) {
          const AggKind kind = aggs_[a].kind;
          if (kind == AggKind::kCountStar) {
            s.counts[base + a]++;
            continue;
          }
          const ColumnVector& v = *args[a];
          if (v.nulls[ri]) continue;
          switch (kind) {
            case AggKind::kSum:
            case AggKind::kAvg:
              s.sums[base + a] += v.NumericAt(ri);
              s.counts[base + a]++;
              break;
            case AggKind::kCount:
              s.counts[base + a]++;
              break;
            case AggKind::kSumInt:
              s.counts[base + a] += v.ints[ri];
              break;
            case AggKind::kMin:
            case AggKind::kMax:
              FoldExtreme(kind, v.GetValue(ri), &s.extremes[base + a]);
              break;
            case AggKind::kCountDistinct:
              dkey.clear();
              PutFixed64(&dkey, base + a);
              AppendKeyBytes(v, ri, &dkey);
              s.AddDistinct(dkey);
              break;
            default:
              break;
          }
        }
      }
    }
  });
  if (failed.load()) return Status::Internal("agg arg eval failed");

  // Appends one output row per group of `s`, in group id order.
  auto emit = [&](const AggSlice& s, std::vector<Batch>* dst) {
    Batch outb = Batch::Make(out_types_);
    for (uint32_t g = 0; g < s.groups.size(); ++g) {
      int c = 0;
      const auto [bi, ri] = s.first_rows[g];
      for (int gc : group_cols_) {
        outb.cols[c++].AppendFrom(in.batches[bi].cols[gc], ri);
      }
      for (size_t a = 0, i = g * naggs; a < naggs; ++a, ++i, ++c) {
        ColumnVector& col = outb.cols[c];
        switch (aggs_[a].kind) {
          case AggKind::kSum:
            if (s.counts[i] == 0) {
              col.AppendNull();
            } else {
              col.AppendDouble(s.sums[i]);
            }
            break;
          case AggKind::kAvg:
            if (s.counts[i] == 0) {
              col.AppendNull();
            } else {
              col.AppendDouble(s.sums[i] / s.counts[i]);
            }
            break;
          case AggKind::kCount:
          case AggKind::kCountStar:
          case AggKind::kSumInt:
          case AggKind::kCountDistinct:
            col.AppendInt(s.counts[i]);
            break;
          case AggKind::kMin:
          case AggKind::kMax:
            col.AppendValue(s.extremes[i]);
            break;
        }
      }
      if (++outb.rows >= Batch::kDefaultCapacity) {
        dst->push_back(std::move(outb));
        outb = Batch::Make(out_types_);
      }
    }
    if (outb.rows > 0) dst->push_back(std::move(outb));
  };

  // Merge, partition-parallel: partition p folds slice p of workers
  // 1..W-1 into worker 0's slice p, in worker order, so the accumulation
  // order matches the serial merge exactly. Keys move with their stored
  // hashes, so nothing is re-hashed, and no partition reads another's
  // slices. A source group maps to a destination group id (new groups start
  // empty); distinct values are re-keyed by that id and recounted as they
  // enter the destination set, never summed.
  std::vector<std::vector<Batch>> merged(P);
  ParallelFor(ctx->pool, P, [&](int p) {
    AggSlice& dst = partials[0][p];
    std::vector<uint32_t> remap;
    std::string dkey;
    for (int w = 1; w < workers; ++w) {
      AggSlice& src = partials[w][p];
      remap.resize(src.groups.size());
      for (uint32_t g = 0; g < src.groups.size(); ++g) {
        const uint32_t d = dst.Group(src.groups.key(g), src.groups.hash(g),
                                     src.first_rows[g], naggs);
        remap[g] = d;
        for (size_t a = 0; a < naggs; ++a) {
          const size_t from = g * naggs + a, to = d * naggs + a;
          dst.sums[to] += src.sums[from];
          switch (aggs_[a].kind) {
            case AggKind::kCountDistinct:
              break;
            case AggKind::kMin:
            case AggKind::kMax:
              if (!IsNull(src.extremes[from])) {
                FoldExtreme(aggs_[a].kind, std::move(src.extremes[from]),
                            &dst.extremes[to]);
              }
              break;
            default:
              dst.counts[to] += src.counts[from];
              break;
          }
        }
      }
      for (uint32_t id = 0; id < src.distinct.size(); ++id) {
        const std::string_view k = src.distinct.key(id);
        const uint64_t from = GetFixed64(k.data());
        dkey.clear();
        PutFixed64(&dkey, remap[from / naggs] * naggs + from % naggs);
        dkey.append(k.substr(8));
        dst.AddDistinct(dkey);
      }
      src = AggSlice();
    }
    emit(dst, &merged[p]);
  });
  for (auto& batches : merged) {
    for (Batch& b : batches) out->batches.push_back(std::move(b));
  }

  // Global aggregate over no rows: SQL returns one row.
  if (out->batches.empty() && group_cols_.empty()) {
    AggSlice empty;
    empty.Group({}, KeyTable::Hash({}), {0, 0}, naggs);
    emit(empty, &out->batches);
  }
  return Status::OK();
}

SortOp::SortOp(PhysOpRef child, std::vector<SortKey> keys, int64_t limit)
    : child_(std::move(child)), keys_(std::move(keys)), limit_(limit) {
  out_types_ = child_->out_types();
}

Status SortOp::Execute(ExecContext* ctx, RowSet* out) {
  RowSet in;
  IMCI_RETURN_NOT_OK(child_->Execute(ctx, &in));
  std::vector<Row> rows = ToRows(in);
  // Total order (keys then full-row tie-break): ties are broken the same way
  // on every node and in the coordinator's k-way merge, so tied rows
  // straddling a LIMIT boundary resolve identically everywhere.
  auto cmp = [&](const Row& a, const Row& b) {
    return CompareRowsTotal(a, b, keys_) < 0;
  };
  if (limit_ >= 0 && static_cast<size_t>(limit_) < rows.size()) {
    std::partial_sort(rows.begin(), rows.begin() + limit_, rows.end(), cmp);
    rows.resize(limit_);
  } else {
    std::sort(rows.begin(), rows.end(), cmp);
  }
  out->types = out_types_;
  Batch b = Batch::Make(out_types_);
  for (const Row& r : rows) {
    for (size_t c = 0; c < r.size(); ++c) b.cols[c].AppendValue(r[c]);
    if (++b.rows >= Batch::kDefaultCapacity) {
      out->batches.push_back(std::move(b));
      b = Batch::Make(out_types_);
    }
  }
  if (b.rows > 0) out->batches.push_back(std::move(b));
  return Status::OK();
}

LimitOp::LimitOp(PhysOpRef child, int64_t limit)
    : child_(std::move(child)), limit_(limit) {
  out_types_ = child_->out_types();
}

Status LimitOp::Execute(ExecContext* ctx, RowSet* out) {
  RowSet in;
  IMCI_RETURN_NOT_OK(child_->Execute(ctx, &in));
  out->types = out_types_;
  int64_t remaining = limit_;
  for (Batch& b : in.batches) {
    if (remaining <= 0) break;
    if (static_cast<int64_t>(b.rows) <= remaining) {
      remaining -= b.rows;
      out->batches.push_back(std::move(b));
    } else {
      Batch cut = Batch::Make(out_types_);
      for (int64_t i = 0; i < remaining; ++i) {
        cut.AppendRowFrom(b, static_cast<size_t>(i));
      }
      out->batches.push_back(std::move(cut));
      remaining = 0;
    }
  }
  return Status::OK();
}

ValuesOp::ValuesOp(std::vector<DataType> types, std::vector<Row> rows)
    : rows_(std::move(rows)) {
  out_types_ = std::move(types);
}

Status ValuesOp::Execute(ExecContext* /*ctx*/, RowSet* out) {
  out->types = out_types_;
  Batch b = Batch::Make(out_types_);
  for (const Row& r : rows_) {
    for (size_t c = 0; c < r.size(); ++c) b.cols[c].AppendValue(r[c]);
    b.rows++;
  }
  if (b.rows > 0) out->batches.push_back(std::move(b));
  return Status::OK();
}

std::vector<Row> ToRows(const RowSet& set) {
  std::vector<Row> rows;
  rows.reserve(set.TotalRows());
  for (const Batch& b : set.batches) {
    for (size_t i = 0; i < b.rows; ++i) {
      Row r;
      r.reserve(b.cols.size());
      for (const auto& col : b.cols) r.push_back(col.GetValue(i));
      rows.push_back(std::move(r));
    }
  }
  return rows;
}

Status RunPlan(const PhysOpRef& root, ExecContext* ctx,
               std::vector<Row>* out) {
  RowSet set;
  IMCI_RETURN_NOT_OK(root->Execute(ctx, &set));
  *out = ToRows(set);
  return Status::OK();
}

}  // namespace imci
