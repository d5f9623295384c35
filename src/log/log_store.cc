#include "log/log_store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/coding.h"
#include "common/fault.h"
#include "log/group_committer.h"
#include "polarfs/polarfs.h"

namespace imci {

namespace {

constexpr size_t kFrameHeader = 4 + 8;  // len + payload hash

void AppendFrame(std::string* dst, const std::string& payload) {
  PutFixed32(dst, static_cast<uint32_t>(payload.size()));
  PutFixed64(dst, HashBytes(payload.data(), payload.size()));
  dst->append(payload);
}

}  // namespace

LogStore::LogStore(PolarFs* fs, std::string name, LogStoreOptions options)
    : fs_(fs),
      name_(std::move(name)),
      options_(options),
      group_(std::make_unique<GroupCommitter>(this)) {}

LogStore::~LogStore() = default;

std::string LogStore::SegmentFileName(const std::string& log_name,
                                      Lsn first_lsn) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg_%020llu",
                static_cast<unsigned long long>(first_lsn));
  return "log/" + log_name + "/" + buf;
}

std::string LogStore::WatermarkFileName() const {
  return "log/" + name_ + "/TRUNCATED";
}

bool LogStore::ParseSegment(const std::string& data, Segment* seg) {
  size_t pos = 0;
  Lsn lsn = seg->first - 1;
  while (pos + kFrameHeader <= data.size()) {
    const uint32_t len = GetFixed32(data.data() + pos);
    const uint64_t hash = GetFixed64(data.data() + pos + 4);
    if (pos + kFrameHeader + len > data.size()) break;  // torn frame
    if (HashBytes(data.data() + pos + kFrameHeader, len) != hash) break;
    seg->offsets.push_back(static_cast<uint32_t>(pos));
    pos += kFrameHeader + len;
    ++lsn;
  }
  seg->last = lsn;
  const bool intact = pos == data.size();
  // Keep only the verified prefix in memory; the caller decides whether the
  // durable file needs the same trim.
  seg->data = data.substr(0, pos);
  return intact;
}

Status LogStore::Open() {
  std::lock_guard<std::mutex> g(mu_);
  IMCI_RETURN_NOT_OK(fault::Maybe("logstore.recover"));
  segments_.clear();
  poisoned_.store(false, std::memory_order_release);

  Lsn truncated = 0;
  std::string wm;
  if (fs_->ReadFile(WatermarkFileName(), &wm).ok() && wm.size() >= 8) {
    truncated = GetFixed64(wm.data());
  }
  truncated_lsn_.store(truncated, std::memory_order_release);

  // Segment names embed their zero-padded first LSN, so the lexicographic
  // listing order is LSN order.
  const std::string prefix = "log/" + name_ + "/seg_";
  std::vector<std::string> files = fs_->ListFiles(prefix);
  std::sort(files.begin(), files.end());

  Lsn tail = truncated;
  bool torn = false;
  for (const std::string& file : files) {
    const Lsn first =
        std::strtoull(file.c_str() + prefix.size(), nullptr, 10);
    if (torn || first != tail + 1) {
      // Everything after a tear (or a gap) is an orphan of the crash:
      // unreachable by dense-LSN replay, so reclaim it (best-effort — an
      // undeleted orphan is re-detected by the next recovery).
      (void)fs_->DeleteFile(file);
      continue;
    }
    Segment seg;
    seg.first = first;
    seg.file = file;
    std::string data;
    Status s = fs_->ReadFile(file, &data);
    if (!s.ok()) return s;
    const bool intact = ParseSegment(data, &seg);
    if (!intact || seg.offsets.empty()) {
      // Torn tail inside this segment: trim the durable image to the good
      // prefix so the next recovery sees a clean log. A zero-record file can
      // only be a crash artifact (segment files are created on their first
      // append), so a tear on the segment boundary itself lands here too:
      // nothing in this segment survived; the log ends with the previous one.
      torn = true;
      if (seg.offsets.empty()) {
        (void)fs_->DeleteFile(file);
        continue;
      }
      IMCI_RETURN_NOT_OK(fs_->WriteFile(file, seg.data));
    }
    tail = seg.last;
    seg.sealed = true;  // recovered segments take no further appends
    seg.data.clear();   // sealed: serve reads from the durable copy
    seg.data.shrink_to_fit();
    segments_.push_back(std::move(seg));
  }
  written_lsn_.store(tail, std::memory_order_release);
  // Everything recovery re-read from segment files is durable by definition.
  group_->ResetDurable(tail);
  return Status::OK();
}

Status LogStore::Reopen() { return Open(); }

void LogStore::StartSegmentLocked(Lsn first_lsn) {
  Segment seg;
  seg.first = first_lsn;
  seg.last = first_lsn - 1;
  seg.file = SegmentFileName(name_, first_lsn);
  segments_.push_back(std::move(seg));
}

Lsn LogStore::Append(std::vector<std::string> records, bool durable,
                     Status* error) {
  if (error != nullptr) *error = Status::OK();
  auto fail = [error](Status s) {
    if (error != nullptr) *error = std::move(s);
    return Lsn{0};
  };
  if (Status s = fault::Maybe("logstore.append"); !s.ok()) {
    return fail(std::move(s));
  }
  Lsn last;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (poisoned_.load(std::memory_order_relaxed)) {
      return fail(Status::IOError("log '" + name_ +
                                  "' poisoned by a failed fsync; Reopen() "
                                  "to recover"));
    }
    if (segments_.empty() || segments_.back().sealed) {
      StartSegmentLocked(written_lsn_.load(std::memory_order_relaxed) + 1);
    }
    uint64_t bytes = 0;
    std::string flush;  // frames not yet written through to the active file
    for (std::string& payload : records) {
      Segment* active = &segments_.back();
      if (!active->offsets.empty() &&
          active->data.size() >= options_.segment_bytes) {
        // Roll over at a record boundary: flush what this batch added to the
        // sealed segment, then open the next one. The sealed segment's
        // in-memory mirror is dropped — the durable copy serves its reads.
        if (!flush.empty()) {
          Status ws = fs_->AppendFile(active->file, flush);
          if (!ws.ok()) {
            // The durable image and the in-memory index have diverged:
            // poison back to the fsync watermark, exactly as a failed batch
            // fsync would.
            PoisonToDurableLocked(group_->durable_lsn());
            return fail(std::move(ws));
          }
          flush.clear();
        }
        active->sealed = true;
        active->data.clear();
        active->data.shrink_to_fit();
        StartSegmentLocked(active->last + 1);
        active = &segments_.back();
      }
      bytes += payload.size();
      active->offsets.push_back(static_cast<uint32_t>(active->data.size()));
      AppendFrame(&active->data, payload);
      flush.append(active->data, active->offsets.back(),
                   active->data.size() - active->offsets.back());
      active->last++;
    }
    if (!flush.empty()) {
      Status ws = fs_->AppendFile(segments_.back().file, flush);
      if (!ws.ok()) {
        PoisonToDurableLocked(group_->durable_lsn());
        return fail(std::move(ws));
      }
    }
    fs_->AccountLogBytes(bytes);
    last = segments_.back().last;
  }
  // Publish and notify: the "broadcast its up-to-date LSN" step of CALS
  // (§5.1). Concurrent appenders may reach here out of order, hence the
  // monotonic CAS. Publication must precede the durability wait below —
  // the group-commit leader's batch target is written_lsn(), which has to
  // cover this batch for SyncTo to terminate.
  Lsn prev = written_lsn_.load(std::memory_order_relaxed);
  while (prev < last && !written_lsn_.compare_exchange_weak(
                            prev, last, std::memory_order_release)) {
  }
  cv_.notify_all();
  if (durable) {
    if (Status s = group_->SyncTo(last); !s.ok()) return fail(std::move(s));
  }
  return last;
}

Status LogStore::Sync() { return fs_->SyncLog(); }

Status LogStore::SyncTo(Lsn lsn) { return group_->SyncTo(lsn); }

void LogStore::PoisonToDurable(Lsn durable) {
  std::lock_guard<std::mutex> g(mu_);
  PoisonToDurableLocked(durable);
}

void LogStore::PoisonToDurableLocked(Lsn durable) {
  if (poisoned_.exchange(true, std::memory_order_acq_rel)) return;
  // The un-fsynced tail was never guaranteed device-side. Trim it from the
  // durable files AND the in-memory index so the live view never shows
  // records that the next recovery would not — the exact state a crash at
  // this fsync would leave behind. All file ops are best-effort: the device
  // is already misbehaving, and Reopen()'s torn-tail scan re-derives the
  // same cut from whatever survives.
  while (!segments_.empty() && segments_.back().first > durable) {
    (void)fs_->DeleteFile(segments_.back().file);
    segments_.pop_back();
  }
  if (!segments_.empty() && segments_.back().last > durable) {
    Segment& seg = segments_.back();
    const size_t keep = static_cast<size_t>(durable + 1 - seg.first);
    if (seg.sealed) {
      // Sealed mid-batch: the mirror is gone, re-read the durable copy to
      // find the cut offset (offsets are retained past sealing).
      std::string data;
      if (fs_->ReadFile(seg.file, &data).ok()) {
        data.resize(std::min<size_t>(data.size(), seg.offsets[keep]));
        (void)fs_->WriteFile(seg.file, std::move(data));
      }
    } else {
      seg.data.resize(seg.offsets[keep]);
      (void)fs_->WriteFile(seg.file, seg.data);
    }
    seg.offsets.resize(keep);
    seg.last = durable;
  }
  written_lsn_.store(durable, std::memory_order_release);
}

Lsn LogStore::durable_lsn() const { return group_->durable_lsn(); }

Lsn LogStore::Read(Lsn from, Lsn to, std::vector<std::string>* out,
                   Status* error) const {
  if (error != nullptr) *error = Status::OK();
  if (Status s = fault::Maybe("logstore.read"); !s.ok()) {
    if (error != nullptr) *error = std::move(s);
    return from;
  }
  std::lock_guard<std::mutex> g(mu_);
  Lsn last = from;
  if (segments_.empty()) return last;
  const Lsn max_lsn = segments_.back().last;
  if (to > max_lsn) to = max_lsn;
  // Locate the first segment that may contain from+1 (segments are sorted).
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), from + 1,
      [](Lsn lsn, const Segment& seg) { return lsn < seg.first; });
  if (it != segments_.begin()) --it;
  std::string loaded;
  for (; it != segments_.end() && it->first <= to; ++it) {
    const Lsn begin = std::max(from + 1, it->first);
    const Lsn end = std::min(to, it->last);
    if (begin > end) continue;
    // Sealed segments keep no in-memory mirror; fetch the durable copy once
    // per segment. A failed fetch STOPS the scan — skipping ahead would
    // hand the caller a silent gap in the record stream.
    const std::string* data = &it->data;
    if (it->sealed) {
      Status s = fs_->ReadFile(it->file, &loaded);
      if (!s.ok()) {
        if (error != nullptr) *error = std::move(s);
        return last;
      }
      data = &loaded;
    }
    for (Lsn lsn = begin; lsn <= end; ++lsn) {
      const size_t idx = static_cast<size_t>(lsn - it->first);
      const uint32_t off = it->offsets[idx];
      const uint32_t len = GetFixed32(data->data() + off);
      out->emplace_back(*data, off + kFrameHeader, len);
      last = lsn;
    }
  }
  return last;
}

void LogStore::set_archive(ArchiveSink* sink) {
  archive_.store(sink, std::memory_order_release);
}

bool LogStore::DecodeFrames(const std::string& data,
                            std::vector<std::string>* out) {
  size_t pos = 0;
  while (pos + kFrameHeader <= data.size()) {
    const uint32_t len = GetFixed32(data.data() + pos);
    const uint64_t hash = GetFixed64(data.data() + pos + 4);
    if (pos + kFrameHeader + len > data.size()) return false;  // torn frame
    if (HashBytes(data.data() + pos + kFrameHeader, len) != hash) return false;
    out->emplace_back(data, pos + kFrameHeader, len);
    pos += kFrameHeader + len;
  }
  return pos == data.size();
}

Status LogStore::Truncate(Lsn lsn) {
  IMCI_RETURN_NOT_OK(fault::Maybe("logstore.truncate"));
  std::lock_guard<std::mutex> g(mu_);
  ArchiveSink* archive = archive_.load(std::memory_order_acquire);
  bool recycled = false;
  Status result;
  while (!segments_.empty() && segments_.front().sealed &&
         segments_.front().last <= lsn) {
    if (archive != nullptr) {
      // Seal-before-truncate: the archive absorbs the segment's durable
      // bytes before the only copy is deleted. A failed seal stops
      // recycling here — the segment stays live until a later Truncate
      // re-offers it — and the failure is surfaced (retryable).
      const Segment& front = segments_.front();
      std::string data;
      result = fs_->ReadFile(front.file, &data);
      if (result.ok()) {
        result = archive->Seal(name_, front.first, front.last, data);
      }
      if (!result.ok()) break;
    }
    // Best-effort: an undeleted recycled segment is below the persisted
    // watermark, so recovery ignores and re-reclaims it.
    (void)fs_->DeleteFile(segments_.front().file);
    truncated_lsn_.store(segments_.front().last, std::memory_order_release);
    segments_.pop_front();
    recycled = true;
  }
  if (recycled) {
    std::string wm;
    PutFixed64(&wm, truncated_lsn_.load(std::memory_order_relaxed));
    IMCI_RETURN_NOT_OK(fs_->WriteFile(WatermarkFileName(), std::move(wm)));
  }
  return result;
}

Lsn LogStore::WaitFor(Lsn lsn, uint64_t timeout_us) const {
  Lsn cur = written_lsn_.load(std::memory_order_acquire);
  if (cur > lsn || timeout_us == 0) return cur;
  std::unique_lock<std::mutex> l(mu_);
  cv_.wait_for(l, std::chrono::microseconds(timeout_us), [&] {
    return written_lsn_.load(std::memory_order_acquire) > lsn;
  });
  return written_lsn_.load(std::memory_order_acquire);
}

size_t LogStore::segment_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return segments_.size();
}

}  // namespace imci
