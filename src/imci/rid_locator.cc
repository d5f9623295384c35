#include "imci/rid_locator.h"

#include <algorithm>

namespace imci {

void RidLocator::Put(int64_t pk, Rid rid) {
  Shard& shard = ShardFor(pk);
  std::unique_lock<std::shared_mutex> g(shard.mu);
  shard.mem[pk] = rid;
  if (shard.mem.size() >= memtable_limit_ / kShards) FlushLocked(&shard);
}

void RidLocator::Erase(int64_t pk) {
  Shard& shard = ShardFor(pk);
  std::unique_lock<std::shared_mutex> g(shard.mu);
  shard.mem[pk] = kInvalidRid;  // tombstone
  if (shard.mem.size() >= memtable_limit_ / kShards) FlushLocked(&shard);
}

Status RidLocator::Get(int64_t pk, Rid* rid) const {
  const Shard& shard = ShardFor(pk);
  std::shared_lock<std::shared_mutex> g(shard.mu);
  auto it = shard.mem.find(pk);
  if (it != shard.mem.end()) {
    if (it->second == kInvalidRid) return Status::NotFound("tombstoned");
    *rid = it->second;
    return Status::OK();
  }
  for (auto rit = shard.runs.rbegin(); rit != shard.runs.rend(); ++rit) {
    const auto& entries = (*rit)->entries;
    auto pos = std::lower_bound(
        entries.begin(), entries.end(), pk,
        [](const std::pair<int64_t, Rid>& e, int64_t k) { return e.first < k; });
    if (pos != entries.end() && pos->first == pk) {
      if (pos->second == kInvalidRid) return Status::NotFound("tombstoned");
      *rid = pos->second;
      return Status::OK();
    }
  }
  return Status::NotFound("pk");
}

void RidLocator::FlushLocked(Shard* shard) {
  if (shard->mem.empty()) return;
  auto run = std::make_shared<Run>();
  run->entries.assign(shard->mem.begin(), shard->mem.end());
  shard->mem.clear();
  shard->runs.push_back(std::move(run));
  if (shard->runs.size() > 4) MergeRunsLocked(shard);
}

void RidLocator::MergeRunsLocked(Shard* shard) {
  // Full merge of all runs: newest wins, tombstones are dropped (nothing
  // older can resurrect them after a full merge).
  std::map<int64_t, Rid> merged;
  for (const RunRef& run : shard->runs) {
    for (const auto& [pk, rid] : run->entries) merged[pk] = rid;
  }
  auto big = std::make_shared<Run>();
  big->entries.reserve(merged.size());
  for (const auto& [pk, rid] : merged) {
    if (rid != kInvalidRid) big->entries.emplace_back(pk, rid);
  }
  shard->runs.clear();
  shard->runs.push_back(std::move(big));
}

std::vector<std::vector<RidLocator::RunRef>> RidLocator::Snapshot() {
  std::vector<std::vector<RunRef>> out(kShards);
  for (int i = 0; i < kShards; ++i) {
    Shard& shard = shards_[i];
    std::unique_lock<std::shared_mutex> g(shard.mu);
    FlushLocked(&shard);
    out[i] = shard.runs;  // shared immutable references
  }
  return out;
}

void RidLocator::Restore(const std::vector<std::vector<RunRef>>& shards) {
  for (int i = 0; i < kShards && i < static_cast<int>(shards.size()); ++i) {
    Shard& shard = shards_[i];
    std::unique_lock<std::shared_mutex> g(shard.mu);
    shard.mem.clear();
    shard.runs = shards[i];
  }
}

}  // namespace imci
