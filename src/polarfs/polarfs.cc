#include "polarfs/polarfs.h"

#include "archive/archive.h"
#include "common/clock.h"
#include "common/fault.h"
#include "log/group_committer.h"
#include "log/log_store.h"

namespace imci {

namespace {
// Simulated device time rides the shared yield-discipline wait — see the
// clock/yield note in polarfs.h for why this must never become a sleep or
// a spin, and must stay the single wait primitive for fault latency too.
void SimulateLatency(uint32_t us) { YieldFor(us); }

/// Applies a write-path injection to `data`: kTorn keeps the prefix (the
/// caller still reports success — torn writes are only discoverable later
/// by checksum), kFail/kCrash surface as IOError, kLatency already stalled
/// inside MaybeInject.
Status ApplyWriteFault(const char* point, std::string* data) {
  fault::Injection inj;
  if (!fault::MaybeInject(point, &inj)) return Status::OK();
  switch (inj.kind) {
    case fault::Kind::kLatency:
      return Status::OK();
    case fault::Kind::kTorn:
      data->resize(static_cast<size_t>(
          static_cast<double>(data->size()) * inj.keep_fraction));
      return Status::OK();
    case fault::Kind::kFail:
    case fault::Kind::kCrash:
      return Status::IOError(std::string("injected fault at ") + point);
  }
  return Status::OK();
}
}  // namespace

PolarFs::PolarFs() : PolarFs(Options{}) {}
PolarFs::PolarFs(Options options) : options_(options) {}
PolarFs::~PolarFs() = default;

LogStore* PolarFs::log(const std::string& name) {
  std::lock_guard<std::mutex> g(logs_mu_);
  auto it = logs_.find(name);
  if (it == logs_.end()) {
    LogStoreOptions opts;
    opts.segment_bytes = options_.log_segment_bytes;
    auto store = std::make_unique<LogStore>(this, name, opts);
    // Lazy first open. Recovery of a brand-new log over an in-memory fs
    // only fails under an injected `logstore.recover` fault; tests that
    // exercise recovery failures go through Reopen()/ReopenLogs(), which
    // do report them.
    (void)store->Open();
    if (options_.enable_archive) store->set_archive(archive());
    it = logs_.emplace(name, std::move(store)).first;
  }
  return it->second.get();
}

Status PolarFs::ReopenLogs() {
  std::lock_guard<std::mutex> g(logs_mu_);
  Status result;
  for (auto& [name, store] : logs_) {
    // Reopen every log even when one fails (each recovers independently);
    // report the first failure.
    if (Status s = store->Reopen(); !s.ok() && result.ok()) {
      result = std::move(s);
    }
  }
  return result;
}

Status PolarFs::SyncLog() {
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  SimulateLatency(options_.fsync_latency_us);
  return fault::Maybe("polarfs.fsync");
}

Status PolarFs::SyncControl() {
  SimulateLatency(options_.fsync_latency_us);
  return fault::Maybe("polarfs.fsync.control");
}

ArchiveStore* PolarFs::archive() {
  if (!options_.enable_archive) return nullptr;
  std::lock_guard<std::mutex> g(archive_mu_);
  if (!archive_) {
    archive_ = std::make_unique<ArchiveStore>(this);
    archive_->snapshots()->set_retention(options_.snapshot_retention);
  }
  return archive_.get();
}

uint64_t PolarFs::commit_batches() const {
  std::lock_guard<std::mutex> g(logs_mu_);
  uint64_t n = 0;
  for (auto& [name, store] : logs_) n += store->group()->batches();
  return n;
}

uint64_t PolarFs::batched_commits() const {
  std::lock_guard<std::mutex> g(logs_mu_);
  uint64_t n = 0;
  for (auto& [name, store] : logs_) n += store->group()->commits();
  return n;
}

Status PolarFs::WritePage(PageId id, std::string image) {
  page_writes_.fetch_add(1, std::memory_order_relaxed);
  IMCI_RETURN_NOT_OK(ApplyWriteFault("polarfs.write_page", &image));
  std::lock_guard<std::mutex> g(page_mu_);
  pages_[id] = std::move(image);
  return Status::OK();
}

Status PolarFs::ReadPage(PageId id, std::string* image) const {
  page_reads_.fetch_add(1, std::memory_order_relaxed);
  IMCI_RETURN_NOT_OK(fault::Maybe("polarfs.read_page"));
  std::lock_guard<std::mutex> g(page_mu_);
  auto it = pages_.find(id);
  if (it == pages_.end()) return Status::NotFound("page");
  *image = it->second;
  return Status::OK();
}

bool PolarFs::HasPage(PageId id) const {
  std::lock_guard<std::mutex> g(page_mu_);
  return pages_.count(id) > 0;
}

std::vector<PageId> PolarFs::ListPages() const {
  std::lock_guard<std::mutex> g(page_mu_);
  std::vector<PageId> v;
  v.reserve(pages_.size());
  for (auto& [id, img] : pages_) v.push_back(id);
  return v;
}

Status PolarFs::WriteFile(const std::string& name, std::string data) {
  IMCI_RETURN_NOT_OK(ApplyWriteFault("polarfs.write_file", &data));
  std::lock_guard<std::mutex> g(file_mu_);
  files_[name] = std::move(data);
  return Status::OK();
}

Status PolarFs::AppendFile(const std::string& name, const std::string& data) {
  // A torn append keeps a prefix of *this* append: earlier bytes of the
  // file are already durable and untouched, exactly like a crash mid-write
  // at the end of a real append-only segment.
  std::string payload = data;
  IMCI_RETURN_NOT_OK(ApplyWriteFault("polarfs.append_file", &payload));
  std::lock_guard<std::mutex> g(file_mu_);
  files_[name].append(payload);
  return Status::OK();
}

Status PolarFs::ReadFile(const std::string& name, std::string* data) const {
  IMCI_RETURN_NOT_OK(fault::Maybe("polarfs.read_file"));
  std::lock_guard<std::mutex> g(file_mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("file " + name);
  *data = it->second;
  return Status::OK();
}

Status PolarFs::DeleteFile(const std::string& name) {
  std::lock_guard<std::mutex> g(file_mu_);
  return files_.erase(name) ? Status::OK() : Status::NotFound(name);
}

std::vector<std::string> PolarFs::ListFiles(const std::string& prefix) const {
  std::lock_guard<std::mutex> g(file_mu_);
  std::vector<std::string> v;
  for (auto& [name, data] : files_) {
    if (name.rfind(prefix, 0) == 0) v.push_back(name);
  }
  return v;
}

}  // namespace imci
