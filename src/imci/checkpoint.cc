#include "imci/checkpoint.h"

#include "common/coding.h"
#include "imci/compression.h"

namespace imci {

namespace {

void EncodeVidArray(const std::atomic<Vid>* vids, uint32_t used, Vid csn,
                    Vid overflow_value, std::string* out) {
  std::vector<int64_t> vals(used);
  for (uint32_t i = 0; i < used; ++i) {
    Vid v = vids[i].load(std::memory_order_relaxed);
    // Align visibility with the CSN: anything newer than the checkpoint is
    // marked invalid (inserts) / not-deleted (deletes).
    if (v != kInvalidVid && v != kMaxVid && v > csn) v = overflow_value;
    vals[i] = static_cast<int64_t>(v);
  }
  IntCodec::Encode(vals, out);
}

Status DecodeVidArray(const std::string& blob, std::atomic<Vid>* vids,
                      uint32_t expect) {
  std::vector<int64_t> vals;
  IMCI_RETURN_NOT_OK(IntCodec::Decode(blob, &vals));
  if (vals.size() != expect) return Status::Corruption("vid array size");
  for (uint32_t i = 0; i < expect; ++i) {
    vids[i].store(static_cast<Vid>(vals[i]), std::memory_order_relaxed);
  }
  return Status::OK();
}

void PutBlob(std::string* out, const std::string& blob) {
  PutFixed32(out, static_cast<uint32_t>(blob.size()));
  out->append(blob);
}

Status GetBlob(const std::string& data, size_t* pos, std::string* blob) {
  if (*pos + 4 > data.size()) return Status::Corruption("blob len");
  uint32_t len = GetFixed32(data.data() + *pos);
  *pos += 4;
  if (*pos + len > data.size()) return Status::Corruption("blob body");
  blob->assign(data.data() + *pos, len);
  *pos += len;
  return Status::OK();
}

}  // namespace

Status ImciCheckpoint::WriteGroup(const ColumnIndex& index, size_t gid,
                                  Vid csn, std::string* out) {
  auto g = index.group(gid);
  if (!g || g->retired()) {
    out->push_back(0);  // absent / reclaimed
    return Status::OK();
  }
  out->push_back(1);
  const uint32_t used = index.GroupUsed(gid);
  PutFixed32(out, used);
  for (int p = 0; p < g->num_packs(); ++p) {
    out->push_back(static_cast<char>(g->pack_type(p)));
    const ColumnPack* pack = const_cast<RowGroup&>(*g).mutable_pack(p);
    std::string nulls(reinterpret_cast<const char*>(pack->nulls.data()), used);
    PutBlob(out, nulls);
    std::string lane;
    switch (pack->type) {
      case DataType::kInt64:
      case DataType::kInt32:
      case DataType::kDate: {
        std::vector<int64_t> vals(pack->ints.begin(),
                                  pack->ints.begin() + used);
        IntCodec::Encode(vals, &lane);
        break;
      }
      case DataType::kDouble: {
        std::vector<double> vals(pack->dbls.begin(),
                                 pack->dbls.begin() + used);
        DoubleCodec::Encode(vals, &lane);
        break;
      }
      case DataType::kString: {
        std::vector<std::string> vals(pack->strs.begin(),
                                      pack->strs.begin() + used);
        DictCodec::Encode(vals, &lane);
        break;
      }
    }
    PutBlob(out, lane);
  }
  std::string ivids, dvids;
  EncodeVidArray(g->raw_insert_vids(), used, csn,
                 static_cast<Vid>(kInvalidVid), &ivids);
  EncodeVidArray(g->raw_delete_vids(), used, csn, kMaxVid, &dvids);
  PutBlob(out, ivids);
  PutBlob(out, dvids);
  return Status::OK();
}

Status ImciCheckpoint::WriteIndex(const ColumnIndex& index, Vid csn,
                                  std::string* out) {
  PutFixed32(out, index.schema().table_id());
  PutFixed64(out, csn);
  PutFixed64(out, index.next_rid());
  PutFixed32(out, index.options().row_group_size);
  const size_t ngroups = index.num_groups();
  PutFixed64(out, ngroups);
  for (size_t gid = 0; gid < ngroups; ++gid) {
    IMCI_RETURN_NOT_OK(WriteGroup(index, gid, csn, out));
  }
  // RID locator: functional snapshot (§7) — immutable run references.
  auto shards = const_cast<ColumnIndex&>(index).locator()->Snapshot();
  PutFixed32(out, static_cast<uint32_t>(shards.size()));
  for (const auto& runs : shards) {
    PutFixed32(out, static_cast<uint32_t>(runs.size()));
    for (const auto& run : runs) {
      PutFixed32(out, static_cast<uint32_t>(run->entries.size()));
      for (const auto& [pk, rid] : run->entries) {
        PutFixed64(out, static_cast<uint64_t>(pk));
        PutFixed64(out, rid);
      }
    }
  }
  return Status::OK();
}

Status ImciCheckpoint::LoadGroup(const std::string& data, size_t* pos,
                                 ColumnIndex* index, size_t gid) {
  if (*pos + 1 > data.size()) return Status::Corruption("group flag");
  const bool present = data[(*pos)++] != 0;
  auto g = index->EnsureGroup(gid);
  if (!present) {
    // Reclaimed group: keep an empty (all-invisible) placeholder.
    return Status::OK();
  }
  if (*pos + 4 > data.size()) return Status::Corruption("group used");
  uint32_t used = GetFixed32(data.data() + *pos);
  *pos += 4;
  if (used > g->capacity()) return Status::Corruption("group overfull");
  for (int p = 0; p < g->num_packs(); ++p) {
    if (*pos + 1 > data.size()) return Status::Corruption("pack type");
    ++*pos;  // type byte (validated against schema implicitly)
    std::string nulls, lane;
    IMCI_RETURN_NOT_OK(GetBlob(data, pos, &nulls));
    IMCI_RETURN_NOT_OK(GetBlob(data, pos, &lane));
    if (nulls.size() != used) return Status::Corruption("nulls size");
    ColumnPack* pack = g->mutable_pack(p);
    for (uint32_t i = 0; i < used; ++i) {
      pack->nulls[i] = static_cast<uint8_t>(nulls[i]);
    }
    switch (pack->type) {
      case DataType::kInt64:
      case DataType::kInt32:
      case DataType::kDate: {
        std::vector<int64_t> vals;
        IMCI_RETURN_NOT_OK(IntCodec::Decode(lane, &vals));
        if (vals.size() != used) return Status::Corruption("int lane");
        std::copy(vals.begin(), vals.end(), pack->ints.begin());
        break;
      }
      case DataType::kDouble: {
        std::vector<double> vals;
        IMCI_RETURN_NOT_OK(DoubleCodec::Decode(lane, &vals));
        if (vals.size() != used) return Status::Corruption("double lane");
        std::copy(vals.begin(), vals.end(), pack->dbls.begin());
        break;
      }
      case DataType::kString: {
        std::vector<std::string> vals;
        IMCI_RETURN_NOT_OK(DictCodec::Decode(lane, &vals));
        if (vals.size() != used) return Status::Corruption("string lane");
        std::move(vals.begin(), vals.end(), pack->strs.begin());
        break;
      }
    }
  }
  std::string ivids, dvids;
  IMCI_RETURN_NOT_OK(GetBlob(data, pos, &ivids));
  IMCI_RETURN_NOT_OK(GetBlob(data, pos, &dvids));
  IMCI_RETURN_NOT_OK(DecodeVidArray(ivids, g->raw_insert_vids(), used));
  IMCI_RETURN_NOT_OK(DecodeVidArray(dvids, g->raw_delete_vids(), used));
  g->RebuildMeta(used);
  return Status::OK();
}

Status ImciCheckpoint::LoadIndex(const std::string& data, ColumnIndex* index) {
  size_t pos = 0;
  if (data.size() < 32) return Status::Corruption("ckpt header");
  TableId tid = GetFixed32(data.data() + pos);
  pos += 4;
  if (tid != index->schema().table_id()) {
    return Status::InvalidArgument("table mismatch");
  }
  pos += 8;  // csn (recorded in manifest)
  Rid next_rid = GetFixed64(data.data() + pos);
  pos += 8;
  uint32_t group_size = GetFixed32(data.data() + pos);
  pos += 4;
  if (group_size != index->options().row_group_size) {
    return Status::InvalidArgument("row group size mismatch");
  }
  uint64_t ngroups = GetFixed64(data.data() + pos);
  pos += 8;
  index->next_rid_.store(next_rid, std::memory_order_release);
  for (size_t gid = 0; gid < ngroups; ++gid) {
    IMCI_RETURN_NOT_OK(LoadGroup(data, &pos, index, gid));
  }
  if (pos + 4 > data.size()) return Status::Corruption("locator shards");
  uint32_t nshards = GetFixed32(data.data() + pos);
  pos += 4;
  std::vector<std::vector<RidLocator::RunRef>> shards(nshards);
  for (uint32_t s = 0; s < nshards; ++s) {
    if (pos + 4 > data.size()) return Status::Corruption("locator runs");
    uint32_t nruns = GetFixed32(data.data() + pos);
    pos += 4;
    for (uint32_t r = 0; r < nruns; ++r) {
      if (pos + 4 > data.size()) return Status::Corruption("run size");
      uint32_t nentries = GetFixed32(data.data() + pos);
      pos += 4;
      auto run = std::make_shared<RidLocator::Run>();
      run->entries.reserve(nentries);
      if (pos + 16ull * nentries > data.size()) {
        return Status::Corruption("run entries");
      }
      for (uint32_t e = 0; e < nentries; ++e) {
        int64_t pk = static_cast<int64_t>(GetFixed64(data.data() + pos));
        Rid rid = GetFixed64(data.data() + pos + 8);
        pos += 16;
        run->entries.emplace_back(pk, rid);
      }
      shards[s].push_back(std::move(run));
    }
  }
  index->locator()->Restore(shards);
  return Status::OK();
}

Status ImciCheckpoint::WriteSnapshot(const ImciStore& store, Vid csn,
                                     Lsn start_lsn, PolarFs* fs,
                                     uint64_t ckpt_id,
                                     const std::string& inflight) {
  const std::string dir = "imci_ckpt/" + std::to_string(ckpt_id) + "/";
  std::string manifest;
  PutFixed64(&manifest, csn);
  PutFixed64(&manifest, start_lsn);
  auto indexes = store.All();
  PutFixed32(&manifest, static_cast<uint32_t>(indexes.size()));
  for (ColumnIndex* idx : indexes) {
    std::string blob;
    IMCI_RETURN_NOT_OK(WriteIndex(*idx, csn, &blob));
    const std::string name = dir + std::to_string(idx->schema().table_id());
    IMCI_RETURN_NOT_OK(fs->WriteFile(name, std::move(blob)));
    PutFixed32(&manifest, idx->schema().table_id());
  }
  IMCI_RETURN_NOT_OK(fs->WriteFile(dir + "TXNS", inflight));
  IMCI_RETURN_NOT_OK(fs->WriteFile(dir + "MANIFEST", std::move(manifest)));
  // Atomically publish: CURRENT names the newest complete checkpoint.
  return fs->WriteFile("imci_ckpt/CURRENT", std::to_string(ckpt_id));
}

Status ImciCheckpoint::ReadLatestManifest(PolarFs* fs, Vid* csn,
                                          Lsn* start_lsn, uint64_t* ckpt_id) {
  std::string current;
  IMCI_RETURN_NOT_OK(fs->ReadFile("imci_ckpt/CURRENT", &current));
  std::string manifest;
  IMCI_RETURN_NOT_OK(
      fs->ReadFile("imci_ckpt/" + current + "/MANIFEST", &manifest));
  if (manifest.size() < 16) return Status::Corruption("manifest");
  *csn = GetFixed64(manifest.data());
  *start_lsn = GetFixed64(manifest.data() + 8);
  if (ckpt_id) *ckpt_id = std::stoull(current);
  return Status::OK();
}

Status ImciCheckpoint::LoadLatest(PolarFs* fs, const Catalog& catalog,
                                  ImciStore* store, Vid* csn, Lsn* start_lsn,
                                  uint64_t* ckpt_id, std::string* inflight) {
  std::string current;
  IMCI_RETURN_NOT_OK(fs->ReadFile("imci_ckpt/CURRENT", &current));
  const uint64_t id = std::stoull(current);
  const std::string dir = "imci_ckpt/" + current + "/";
  std::string manifest;
  IMCI_RETURN_NOT_OK(fs->ReadFile(dir + "MANIFEST", &manifest));
  if (manifest.size() < 20) return Status::Corruption("manifest");
  *csn = GetFixed64(manifest.data());
  *start_lsn = GetFixed64(manifest.data() + 8);
  if (ckpt_id) *ckpt_id = id;
  uint32_t ntables = GetFixed32(manifest.data() + 16);
  size_t pos = 20;
  for (uint32_t i = 0; i < ntables; ++i) {
    if (pos + 4 > manifest.size()) return Status::Corruption("manifest tbl");
    TableId tid = GetFixed32(manifest.data() + pos);
    pos += 4;
    auto schema = catalog.Get(tid);
    if (!schema) return Status::Corruption("unknown table in manifest");
    ColumnIndex* idx = store->CreateIndex(schema);
    std::string blob;
    IMCI_RETURN_NOT_OK(fs->ReadFile(dir + std::to_string(tid), &blob));
    IMCI_RETURN_NOT_OK(LoadIndex(blob, idx));
  }
  if (inflight != nullptr) {
    inflight->clear();
    Status s = fs->ReadFile(dir + "TXNS", inflight);
    // Absent == no in-flight txns; any other failure must not silently
    // drop them (a booting node would surface their mid-transaction page
    // effects as committed).
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  return Status::OK();
}

}  // namespace imci
