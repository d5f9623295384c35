#include "archive/snapshot_store.h"

#include <algorithm>

#include "common/coding.h"
#include "common/fault.h"
#include "polarfs/polarfs.h"

namespace imci {

namespace {

constexpr char kIndexFile[] = "archive/snap/INDEX";
// ckpt_id, csn, start_lsn, pages size+hash, files size+hash, trailer hash.
constexpr size_t kManifestBytes = 8 * 8;

Status VerifiedBlob(const PolarFs* fs, const std::string& name,
                    uint64_t expect_size, uint64_t expect_hash,
                    std::string* out) {
  IMCI_RETURN_NOT_OK(fs->ReadFile(name, out));
  if (out->size() != expect_size ||
      HashBytes(out->data(), out->size()) != expect_hash) {
    return Status::Corruption("snapshot blob " + name + " torn or corrupt");
  }
  return Status::OK();
}

}  // namespace

std::string SnapshotStore::AnchorDir(uint64_t ckpt_id) {
  return "archive/snap/" + std::to_string(ckpt_id) + "/";
}

Status SnapshotStore::Register(uint64_t ckpt_id, Vid csn, Lsn start_lsn) {
  std::lock_guard<std::mutex> g(mu_);
  // Scope tag for targeted injection: tests arm e.g. `polarfs.write_file`
  // with scope "snapshot.seal" to tear exactly an anchor blob write (the
  // tear reports success here; Restore's checksum verification must catch
  // it as Corruption — never a silently shorter history).
  fault::ScopedContext seal_scope("snapshot.seal");
  // Copy the page store: later checkpoint flushes overwrite page images in
  // place, so the anchor keeps its own copy.
  std::string pages;
  const std::vector<PageId> ids = fs_->ListPages();
  PutFixed32(&pages, static_cast<uint32_t>(ids.size()));
  for (PageId id : ids) {
    std::string img;
    IMCI_RETURN_NOT_OK(fs_->ReadPage(id, &img));
    PutFixed64(&pages, id);
    PutFixed32(&pages, static_cast<uint32_t>(img.size()));
    pages.append(img);
  }
  // Row-store control files (registry, base_lsn) and, for checkpoint
  // anchors, the column checkpoint directory the CSN lives in.
  std::vector<std::string> names = fs_->ListFiles("rowstore/");
  if (ckpt_id != 0) {
    const std::string ckpt_dir = "imci_ckpt/" + std::to_string(ckpt_id) + "/";
    for (std::string& n : fs_->ListFiles(ckpt_dir)) {
      names.push_back(std::move(n));
    }
  }
  std::string files;
  PutFixed32(&files, static_cast<uint32_t>(names.size()));
  for (const std::string& n : names) {
    std::string data;
    IMCI_RETURN_NOT_OK(fs_->ReadFile(n, &data));
    PutFixed32(&files, static_cast<uint32_t>(n.size()));
    files.append(n);
    PutFixed32(&files, static_cast<uint32_t>(data.size()));
    files.append(data);
  }
  const std::string dir = AnchorDir(ckpt_id);
  std::string manifest;
  PutFixed64(&manifest, ckpt_id);
  PutFixed64(&manifest, csn);
  PutFixed64(&manifest, start_lsn);
  PutFixed64(&manifest, pages.size());
  PutFixed64(&manifest, HashBytes(pages.data(), pages.size()));
  PutFixed64(&manifest, files.size());
  PutFixed64(&manifest, HashBytes(files.data(), files.size()));
  PutFixed64(&manifest, HashBytes(manifest.data(), manifest.size()));
  Anchor a;
  a.ckpt_id = ckpt_id;
  a.csn = csn;
  a.start_lsn = start_lsn;
  a.bytes = pages.size() + files.size();
  IMCI_RETURN_NOT_OK(fs_->WriteFile(dir + "PAGES", std::move(pages)));
  IMCI_RETURN_NOT_OK(fs_->WriteFile(dir + "FILES", std::move(files)));
  IMCI_RETURN_NOT_OK(fs_->WriteFile(dir + "MANIFEST", std::move(manifest)));
  std::vector<Anchor> anchors;
  Status s = LoadIndex(&anchors);
  if (!s.ok() && !s.IsNotFound()) return s;
  bool replaced = false;
  for (Anchor& e : anchors) {
    if (e.ckpt_id == ckpt_id) {
      e = a;
      replaced = true;
    }
  }
  if (!replaced) anchors.push_back(a);
  if (retention_ > 0 && anchors.size() > retention_) {
    // Cap exceeded: drop the oldest anchors (their copied blobs first, then
    // the index entries). A restore to an LSN below the surviving anchors is
    // no longer possible, which is exactly what raises the archive GC floor.
    std::sort(anchors.begin(), anchors.end(),
              [](const Anchor& x, const Anchor& y) {
                return x.ckpt_id < y.ckpt_id;
              });
    const size_t drop = anchors.size() - retention_;
    for (size_t i = 0; i < drop; ++i) {
      const std::string old_dir = AnchorDir(anchors[i].ckpt_id);
      (void)fs_->DeleteFile(old_dir + "PAGES");
      (void)fs_->DeleteFile(old_dir + "FILES");
      (void)fs_->DeleteFile(old_dir + "MANIFEST");
    }
    anchors.erase(anchors.begin(),
                  anchors.begin() + static_cast<ptrdiff_t>(drop));
  }
  IMCI_RETURN_NOT_OK(StoreIndexLocked(anchors));
  return fs_->SyncControl();
}

Lsn SnapshotStore::GcFloorLsn() const {
  std::vector<Anchor> anchors;
  if (!LoadIndex(&anchors).ok() || anchors.empty()) return 0;
  Lsn floor = anchors.front().start_lsn;
  for (const Anchor& a : anchors) floor = std::min(floor, a.start_lsn);
  return floor;
}

Status SnapshotStore::StoreIndexLocked(const std::vector<Anchor>& anchors) {
  std::string blob;
  PutFixed32(&blob, static_cast<uint32_t>(anchors.size()));
  for (const Anchor& a : anchors) {
    PutFixed64(&blob, a.ckpt_id);
    PutFixed64(&blob, a.csn);
    PutFixed64(&blob, a.start_lsn);
    PutFixed64(&blob, a.bytes);
  }
  PutFixed64(&blob, HashBytes(blob.data(), blob.size()));
  return fs_->WriteFile(kIndexFile, std::move(blob));
}

Status SnapshotStore::LoadIndex(std::vector<Anchor>* out) const {
  out->clear();
  std::string blob;
  IMCI_RETURN_NOT_OK(fs_->ReadFile(kIndexFile, &blob));
  if (blob.size() < 4 + 8) return Status::Corruption("snapshot index header");
  const uint64_t trailer = GetFixed64(blob.data() + blob.size() - 8);
  if (HashBytes(blob.data(), blob.size() - 8) != trailer) {
    return Status::Corruption("snapshot index checksum");
  }
  const uint32_t count = GetFixed32(blob.data());
  if (blob.size() != 4 + 32ull * count + 8) {
    return Status::Corruption("snapshot index size");
  }
  size_t pos = 4;
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Anchor a;
    a.ckpt_id = GetFixed64(blob.data() + pos);
    a.csn = GetFixed64(blob.data() + pos + 8);
    a.start_lsn = GetFixed64(blob.data() + pos + 16);
    a.bytes = GetFixed64(blob.data() + pos + 24);
    pos += 32;
    out->push_back(a);
  }
  return Status::OK();
}

Status SnapshotStore::Anchors(std::vector<Anchor>* out) const {
  return LoadIndex(out);
}

Status SnapshotStore::FindAnchor(Lsn lsn, Anchor* out) const {
  std::vector<Anchor> anchors;
  IMCI_RETURN_NOT_OK(LoadIndex(&anchors));
  bool found = false;
  for (const Anchor& a : anchors) {
    if (a.start_lsn > lsn) continue;
    if (!found || a.start_lsn > out->start_lsn ||
        (a.start_lsn == out->start_lsn && a.ckpt_id > out->ckpt_id)) {
      *out = a;
      found = true;
    }
  }
  return found ? Status::OK()
               : Status::NotFound("no snapshot anchor at or below lsn " +
                                  std::to_string(lsn));
}

Status SnapshotStore::Restore(const Anchor& a, PolarFs* dest) const {
  const std::string dir = AnchorDir(a.ckpt_id);
  std::string manifest;
  IMCI_RETURN_NOT_OK(fs_->ReadFile(dir + "MANIFEST", &manifest));
  if (manifest.size() != kManifestBytes) {
    return Status::Corruption("snapshot manifest size");
  }
  const uint64_t trailer = GetFixed64(manifest.data() + kManifestBytes - 8);
  if (HashBytes(manifest.data(), kManifestBytes - 8) != trailer) {
    return Status::Corruption("snapshot manifest checksum");
  }
  if (GetFixed64(manifest.data()) != a.ckpt_id) {
    return Status::Corruption("snapshot manifest anchor mismatch");
  }
  std::string pages;
  IMCI_RETURN_NOT_OK(VerifiedBlob(fs_, dir + "PAGES",
                                  GetFixed64(manifest.data() + 24),
                                  GetFixed64(manifest.data() + 32), &pages));
  std::string files;
  IMCI_RETURN_NOT_OK(VerifiedBlob(fs_, dir + "FILES",
                                  GetFixed64(manifest.data() + 40),
                                  GetFixed64(manifest.data() + 48), &files));
  if (pages.size() < 4) return Status::Corruption("snapshot pages header");
  const uint32_t npages = GetFixed32(pages.data());
  size_t pos = 4;
  for (uint32_t i = 0; i < npages; ++i) {
    if (pos + 12 > pages.size()) return Status::Corruption("snapshot page");
    const PageId id = GetFixed64(pages.data() + pos);
    const uint32_t len = GetFixed32(pages.data() + pos + 8);
    pos += 12;
    if (pos + len > pages.size()) return Status::Corruption("snapshot page");
    IMCI_RETURN_NOT_OK(dest->WritePage(id, pages.substr(pos, len)));
    pos += len;
  }
  if (files.size() < 4) return Status::Corruption("snapshot files header");
  const uint32_t nfiles = GetFixed32(files.data());
  pos = 4;
  for (uint32_t i = 0; i < nfiles; ++i) {
    if (pos + 4 > files.size()) return Status::Corruption("snapshot file");
    const uint32_t namelen = GetFixed32(files.data() + pos);
    pos += 4;
    if (pos + namelen + 4 > files.size()) {
      return Status::Corruption("snapshot file");
    }
    std::string name = files.substr(pos, namelen);
    pos += namelen;
    const uint32_t len = GetFixed32(files.data() + pos);
    pos += 4;
    if (pos + len > files.size()) return Status::Corruption("snapshot file");
    IMCI_RETURN_NOT_OK(dest->WriteFile(std::move(name), files.substr(pos, len)));
    pos += len;
  }
  if (a.ckpt_id != 0) {
    IMCI_RETURN_NOT_OK(
        dest->WriteFile("imci_ckpt/CURRENT", std::to_string(a.ckpt_id)));
  }
  return Status::OK();
}

}  // namespace imci
