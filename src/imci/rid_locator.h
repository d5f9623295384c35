#ifndef POLARDB_IMCI_IMCI_RID_LOCATOR_H_
#define POLARDB_IMCI_IMCI_RID_LOCATOR_H_

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/coding.h"
#include "common/status.h"
#include "common/types.h"

namespace imci {

/// The RID locator (§4.1): maps primary keys to the physical position (RID)
/// of the current version of the row inside the column index. Implemented,
/// as in the paper, as a two-layered LSM tree: a mutable memtable layer (L0)
/// over immutable sorted runs (L1). Deletes write tombstones; a full merge
/// (triggered when runs accumulate) drops them.
///
/// Checkpoint integration (§7): `Snapshot()` seals the memtables into runs
/// and hands out shared immutable run references — the "immutable copy split
/// by functional data structures" — so checkpoint writers and concurrent
/// updates never conflict. To keep residue off old views, ColumnIndex
/// triggers checkpoints when memtables have just been flushed.
class RidLocator {
 public:
  struct Run {
    std::vector<std::pair<int64_t, Rid>> entries;  // sorted; kInvalidRid=del
  };
  using RunRef = std::shared_ptr<const Run>;

  explicit RidLocator(size_t memtable_limit = 1 << 16)
      : memtable_limit_(memtable_limit) {}

  void Put(int64_t pk, Rid rid);
  /// Tombstones the mapping (delete operations remove PK->RID, §4.2).
  void Erase(int64_t pk);
  Status Get(int64_t pk, Rid* rid) const;

  /// Seals all memtables into runs and returns every shard's run stack
  /// (newest last). The returned runs are immutable.
  std::vector<std::vector<RunRef>> Snapshot();

  /// Restores from a snapshot (checkpoint recovery).
  void Restore(const std::vector<std::vector<RunRef>>& shards);

  static constexpr int kShards = 16;

 private:
  struct Shard {
    mutable std::shared_mutex mu;
    std::map<int64_t, Rid> mem;
    std::vector<RunRef> runs;  // oldest first
  };

  Shard& ShardFor(int64_t pk) {
    return shards_[Hash64(static_cast<uint64_t>(pk)) % kShards];
  }
  const Shard& ShardFor(int64_t pk) const {
    return shards_[Hash64(static_cast<uint64_t>(pk)) % kShards];
  }
  /// Must hold shard.mu exclusively. Flushes the memtable to a run and
  /// merges when too many runs pile up.
  void FlushLocked(Shard* shard);
  static void MergeRunsLocked(Shard* shard);

  size_t memtable_limit_;
  Shard shards_[kShards];
};

}  // namespace imci

#endif  // POLARDB_IMCI_IMCI_RID_LOCATOR_H_
