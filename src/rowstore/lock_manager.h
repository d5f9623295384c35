#ifndef POLARDB_IMCI_ROWSTORE_LOCK_MANAGER_H_
#define POLARDB_IMCI_ROWSTORE_LOCK_MANAGER_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/coding.h"
#include "common/status.h"
#include "common/types.h"

namespace imci {

/// Row-level shared/exclusive lock table for the RW node (strict 2PL: the
/// transaction manager releases every hold at commit/rollback). Deadlocks
/// are resolved by lock-wait timeout -> the requesting transaction receives
/// Status::Busy and is expected to abort and retry, which is how the TPC-C
/// driver handles contention.
///
/// Conflict matrix (holder vs requester):
///            S held    X held
///   S want    grant     wait
///   X want    wait*     wait
/// (*) exception: a transaction that is the SOLE shared holder may upgrade
/// to exclusive in place. Both modes are re-entrant for the same tid, and an
/// exclusive holder's shared request is satisfied by its exclusive lock.
class LockManager {
 public:
  explicit LockManager(uint64_t timeout_us = 50'000) : timeout_us_(timeout_us) {}

  /// Acquires the exclusive lock on (table_id, key) for `tid`. Re-entrant
  /// for the owner; upgrades a sole shared hold.
  Status Lock(Tid tid, TableId table_id, int64_t key) {
    Shard& shard = ShardFor(table_id, key);
    const LockKey k{table_id, key};
    std::unique_lock<std::mutex> l(shard.mu);
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::microseconds(timeout_us_);
    for (;;) {
      Entry& e = shard.entries[k];
      if (e.x_owner == tid) return Status::OK();  // re-entrant
      if (e.x_owner == kNoOwner &&
          (e.sharers.empty() ||
           (e.sharers.size() == 1 && e.sharers[0] == tid))) {
        e.sharers.clear();  // upgrade consumes the shared hold
        e.x_owner = tid;
        return Status::OK();
      }
      if (shard.cv.wait_until(l, deadline) == std::cv_status::timeout) {
        EraseIfFree(&shard, k);
        return Status::Busy("lock wait timeout");
      }
    }
  }

  /// Acquires a shared lock on (table_id, key) for `tid`. Re-entrant; a
  /// holder of the exclusive lock is already covered.
  Status LockShared(Tid tid, TableId table_id, int64_t key) {
    Shard& shard = ShardFor(table_id, key);
    const LockKey k{table_id, key};
    std::unique_lock<std::mutex> l(shard.mu);
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::microseconds(timeout_us_);
    for (;;) {
      Entry& e = shard.entries[k];
      if (e.x_owner == tid) return Status::OK();  // covered by exclusive
      if (e.x_owner == kNoOwner) {
        if (std::find(e.sharers.begin(), e.sharers.end(), tid) ==
            e.sharers.end()) {
          e.sharers.push_back(tid);
        }
        return Status::OK();
      }
      if (shard.cv.wait_until(l, deadline) == std::cv_status::timeout) {
        EraseIfFree(&shard, k);
        return Status::Busy("lock wait timeout");
      }
    }
  }

  /// Releases `tid`'s hold (shared or exclusive) on one key (no-op if it
  /// holds nothing there).
  void Unlock(Tid tid, TableId table_id, int64_t key) {
    Shard& shard = ShardFor(table_id, key);
    const LockKey k{table_id, key};
    bool released = false;
    {
      std::lock_guard<std::mutex> g(shard.mu);
      auto it = shard.entries.find(k);
      if (it == shard.entries.end()) return;
      released = ReleaseHold(&it->second, tid);
      if (it->second.Free()) shard.entries.erase(it);
    }
    if (released) shard.cv.notify_all();
  }

 private:
  static constexpr Tid kNoOwner = 0;  // transaction ids are 1-based

  struct LockKey {
    TableId table_id;
    int64_t key;
    bool operator==(const LockKey& o) const {
      return table_id == o.table_id && key == o.key;
    }
  };
  struct LockKeyHash {
    size_t operator()(const LockKey& k) const {
      return Hash64((static_cast<uint64_t>(k.table_id) << 48) ^
                    static_cast<uint64_t>(k.key));
    }
  };
  struct Entry {
    Tid x_owner = kNoOwner;
    std::vector<Tid> sharers;
    bool Free() const { return x_owner == kNoOwner && sharers.empty(); }
  };
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<LockKey, Entry, LockKeyHash> entries;
  };

  /// Drops `tid`'s hold on `e`; returns true if anything was released.
  static bool ReleaseHold(Entry* e, Tid tid) {
    bool released = false;
    if (e->x_owner == tid) {
      e->x_owner = kNoOwner;
      released = true;
    }
    auto it = std::find(e->sharers.begin(), e->sharers.end(), tid);
    if (it != e->sharers.end()) {
      e->sharers.erase(it);
      released = true;
    }
    return released;
  }

  /// Timed-out waiters may have created an empty map entry; drop it.
  static void EraseIfFree(Shard* shard, const LockKey& k) {
    auto it = shard->entries.find(k);
    if (it != shard->entries.end() && it->second.Free()) {
      shard->entries.erase(it);
    }
  }

  static constexpr int kShards = 64;
  Shard& ShardFor(TableId t, int64_t k) {
    return shards_[Hash64((static_cast<uint64_t>(t) << 48) ^
                          static_cast<uint64_t>(k)) %
                   kShards];
  }

  uint64_t timeout_us_;
  Shard shards_[kShards];
};

}  // namespace imci

#endif  // POLARDB_IMCI_ROWSTORE_LOCK_MANAGER_H_
