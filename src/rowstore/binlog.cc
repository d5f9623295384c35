#include "rowstore/binlog.h"

#include "common/coding.h"

namespace imci {

BinlogWriter::BinlogWriter(LogStore* log) : log_(log) {}

Lsn BinlogWriter::EnqueueTxn(Tid tid, Vid vid, uint64_t commit_ts_us,
                             const std::vector<Event>& events, Status* error) {
  std::string buf;
  PutFixed64(&buf, tid);
  PutFixed64(&buf, vid);
  PutFixed64(&buf, commit_ts_us);
  PutFixed32(&buf, static_cast<uint32_t>(events.size()));
  for (const Event& e : events) {
    buf.push_back(static_cast<char>(e.op));
    PutFixed32(&buf, e.table_id);
    PutFixed64(&buf, static_cast<uint64_t>(e.pk));
    PutFixed32(&buf, static_cast<uint32_t>(e.row_image.size()));
    buf.append(e.row_image);
  }
  PutFixed64(&buf, HashBytes(buf.data(), buf.size()));
  bytes_.fetch_add(buf.size(), std::memory_order_relaxed);
  txns_.fetch_add(1, std::memory_order_relaxed);
  // Binlog appends are serialized (MySQL's binlog mutex): the sequence
  // number (binlog LSN) is assigned under the mutex so log order equals
  // commit order. The durable flush — the extra fsync the paper blames for
  // the Binlog baseline's OLTP loss — is the caller's SyncTo, outside any
  // ordering mutex, so concurrent commits share it per batch.
  std::lock_guard<std::mutex> g(mu_);
  return log_->Append({std::move(buf)}, /*durable=*/false, error);
}

bool BinlogWriter::DecodeTxn(const std::string& data, Tid* tid, Vid* vid,
                             uint64_t* commit_ts_us,
                             std::vector<Event>* events) {
  // Layout: tid(8) vid(8) ts(8) count(4) events... checksum(8). The
  // checksum covers everything before it.
  constexpr size_t kHeader = 8 + 8 + 8 + 4;
  if (data.size() < kHeader + 8) return false;
  const size_t body = data.size() - 8;
  if (GetFixed64(data.data() + body) != HashBytes(data.data(), body)) {
    return false;
  }
  *tid = GetFixed64(data.data());
  *vid = GetFixed64(data.data() + 8);
  *commit_ts_us = GetFixed64(data.data() + 16);
  const uint32_t count = GetFixed32(data.data() + 24);
  events->clear();
  size_t off = kHeader;
  for (uint32_t i = 0; i < count; ++i) {
    if (off + 1 + 4 + 8 + 4 > body) return false;
    Event e;
    e.op = static_cast<Event::Op>(data[off]);
    off += 1;
    e.table_id = GetFixed32(data.data() + off);
    off += 4;
    e.pk = static_cast<int64_t>(GetFixed64(data.data() + off));
    off += 8;
    const uint32_t image_len = GetFixed32(data.data() + off);
    off += 4;
    if (off + image_len > body) return false;
    e.row_image.assign(data.data() + off, image_len);
    off += image_len;
    events->push_back(std::move(e));
  }
  return off == body;
}

size_t BinlogWriter::Replay(
    LogStore* log,
    const std::function<void(Tid, Vid, const std::vector<Event>&)>& fn) {
  size_t recovered = 0;
  Lsn from = log->truncated_lsn();
  const Lsn to = log->written_lsn();
  while (from < to) {
    std::vector<std::string> raw;
    const Lsn last = log->Read(from, std::min(to, from + 1024), &raw);
    if (last == from) break;
    from = last;
    for (const std::string& data : raw) {
      Tid tid = 0;
      Vid vid = 0;
      uint64_t ts = 0;
      std::vector<Event> events;
      if (!DecodeTxn(data, &tid, &vid, &ts, &events)) return recovered;
      fn(tid, vid, events);
      ++recovered;
    }
  }
  return recovered;
}

}  // namespace imci
