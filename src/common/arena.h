#ifndef POLARDB_IMCI_COMMON_ARENA_H_
#define POLARDB_IMCI_COMMON_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.h"

namespace imci {

/// Epoch-based reclamation support for latch-free readers of arena-backed
/// structures (the MVCC version chains). The owner of an arena unlinks nodes
/// under its own exclusive synchronization, but readers traverse the linked
/// structure with acquire-loads only — so memory can only be returned to the
/// allocator once every reader that might still hold a pointer into it has
/// finished. The registry tracks that with a classic two-phase scheme:
///
///   - every reader thread owns a cache-line-sized slot; entering a read
///     section stores the current era into it (plus a seq_cst fence so the
///     store is ordered before the reads it protects), leaving resets it;
///   - retiring memory advances the era and stamps the garbage with the new
///     value; the garbage is freed only when every slot is idle or was
///     (re-)entered at or after the stamp.
///
/// A reader that entered *after* the retire cannot reach the garbage at all:
/// the nodes were unlinked (under the owner's exclusive latch) before they
/// were retired, and readers pick up their entry pointers from the live
/// structure after entering the guard. A reader that entered before holds a
/// slot era below the stamp and blocks the free. Slots are recycled through
/// a free list when threads exit.
class ArenaReadRegistry {
 public:
  static constexpr uint64_t kIdle = ~0ull;

  struct alignas(64) Slot {
    std::atomic<uint64_t> era{kIdle};
    std::atomic<bool> in_use{false};
  };

  /// Process-wide instance (leaky singleton: reader slots may outlive any
  /// single arena, and thread-exit hooks run arbitrarily late).
  static ArenaReadRegistry& Instance();

  /// The slot owned by the calling thread (registered on first use,
  /// returned to the free list at thread exit).
  Slot* ThreadSlot();

  /// Returns a slot to the free list (thread-exit hook).
  void ReleaseSlot(Slot* slot);

  uint64_t era() const { return era_.load(std::memory_order_acquire); }

  /// Starts a new era and returns it — the retire stamp for garbage
  /// unlinked before this call.
  uint64_t AdvanceEra();

  /// True when no reader section that began before `stamp` is still open:
  /// every slot is idle or carries an era >= stamp.
  bool QuiescedSince(uint64_t stamp) const;

 private:
  ArenaReadRegistry() = default;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_;  // append-only; recycled
  std::vector<Slot*> free_slots_;
  std::atomic<uint64_t> era_{1};
};

/// RAII read-side section for latch-free traversal of arena-backed chains.
/// Cheap (two atomic stores and a fence per outermost section) and
/// reentrant. Enter the guard *before* loading the entry pointer into the
/// shared structure: pointers obtained inside the guard stay valid until it
/// is destroyed, no matter what the owner unlinks or retires concurrently.
class ArenaReadGuard {
 public:
  ArenaReadGuard();
  ~ArenaReadGuard();

  ArenaReadGuard(const ArenaReadGuard&) = delete;
  ArenaReadGuard& operator=(const ArenaReadGuard&) = delete;
};

/// A chunked bump-pointer arena with per-epoch chunk segregation and bulk
/// epoch drop (the TChunkedMemoryPool shape): allocation appends to the
/// current epoch's open chunk; sealing closes the epoch; dropping retires
/// every chunk of the chosen epochs at once instead of freeing node by node.
///
/// External synchronization: the owner serializes every mutating call
/// (Allocate/NoteStamp/SealEpoch/DroppableEpochs/DropEpochs/CollectGarbage)
/// — for the MVCC chains that is the table's exclusive latch. Concurrent
/// readers never call into the arena; they only dereference pointers into
/// its chunks, protected by ArenaReadGuard.
///
/// Reclamation protocol (both guards are needed, and the asan/tsan suites
/// exercise both):
///   1. *Watermark guard*: the owner only selects epochs whose newest
///      stamped version is at or below the snapshot watermark
///      (DroppableEpochs), and relocates any still-reachable survivor out of
///      them first — so no version a live snapshot can resolve is ever
///      retired.
///   2. *Grace guard*: DropEpochs does not free; it stamps the chunks with a
///      fresh registry era, and CollectGarbage frees them only once every
///      reader section that predates the stamp has closed — so a traversal
///      already in flight never dereferences freed memory.
class VersionArena {
 public:
  static constexpr size_t kDefaultChunkBytes = 64 * 1024;

  struct Stats {
    uint64_t bytes_live = 0;      // in allocatable or sealed, unretired chunks
    uint64_t bytes_pending = 0;   // retired, awaiting reader grace
    uint64_t bytes_retired = 0;   // cumulative bytes handed back (freed)
    uint64_t chunks_live = 0;
    uint64_t epochs_dropped = 0;  // cumulative
    uint64_t allocations = 0;     // cumulative Allocate calls
  };

  explicit VersionArena(size_t chunk_bytes = kDefaultChunkBytes);
  ~VersionArena();  // frees everything; caller guarantees reader quiescence

  VersionArena(const VersionArena&) = delete;
  VersionArena& operator=(const VersionArena&) = delete;

  /// Bump-allocates `bytes` (8-byte aligned) in the current epoch. Never
  /// fails (grows by whole chunks); the memory is never individually freed —
  /// it is reclaimed when its epoch is dropped.
  void* Allocate(size_t bytes);

  /// The epoch new allocations land in.
  uint32_t current_epoch() const { return current_.id; }

  /// Records that a node allocated in `epoch` now carries commit VID `vid`,
  /// raising the epoch's newest-version bound. Keeps DroppableEpochs honest
  /// for in-flight nodes stamped after their epoch was sealed.
  void NoteStamp(uint32_t epoch, Vid vid);

  /// Seals the current epoch (no further allocations into it) and opens the
  /// next. No-op when the current epoch has no chunks.
  void SealEpoch();

  /// Sealed epochs whose newest stamped version is at or below `watermark` —
  /// the bulk-drop candidates. The owner must relocate any surviving
  /// reachable node out of them before calling DropEpochs (epochs can hold
  /// in-flight or base versions the stamp bound does not cover).
  std::vector<uint32_t> DroppableEpochs(Vid watermark) const;

  /// Retires every chunk of `epochs` to the grace list (freed by a later
  /// CollectGarbage once readers quiesce). Returns chunks retired.
  size_t DropEpochs(const std::vector<uint32_t>& epochs);

  /// Frees retired chunks whose grace period has passed. Returns chunks
  /// freed.
  size_t CollectGarbage();

  Stats stats() const { return stats_; }

  /// Test hook: when true, DropEpochs frees chunk memory immediately,
  /// bypassing the reader-grace list. Exists only so the asan suite can
  /// prove the grace guard is load-bearing (reads through a live snapshot
  /// then fault on freed memory). Never set outside tests.
  static bool test_unsafe_immediate_reclaim;

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t size = 0;
    size_t used = 0;
  };
  struct Epoch {
    uint32_t id = 0;
    Vid max_stamped_vid = 0;
    std::vector<Chunk> chunks;
  };
  struct Retired {
    uint64_t era_stamp = 0;
    uint64_t bytes = 0;
    std::vector<Chunk> chunks;
  };

  const size_t chunk_bytes_;
  Epoch current_;
  std::deque<Epoch> sealed_;  // oldest first
  std::deque<Retired> grace_;  // oldest first
  Stats stats_;
};

}  // namespace imci

#endif  // POLARDB_IMCI_COMMON_ARENA_H_
