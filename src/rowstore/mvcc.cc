#include "rowstore/mvcc.h"

#include <algorithm>
#include <new>

namespace imci {

namespace {

inline uint64_t InflightStamp(Tid tid) {
  return RowVersion::kInflightBit | tid;
}

}  // namespace

RowVersion* VersionChains::NewNode(uint64_t stamp, bool deleted,
                                   std::string_view image) {
  void* mem = arena_.Allocate(sizeof(RowVersion) + image.size());
  return new (mem) RowVersion(stamp, deleted, image, arena_.current_epoch());
}

void VersionChains::NoteLengthChange(ChainRef* chain, uint32_t new_length) {
  if (chain->length != 0) {
    lengths_.erase(lengths_.find(chain->length));
  }
  if (new_length != 0) lengths_.insert(new_length);
  chain->length = new_length;
}

void VersionChains::EraseChain(Map::iterator it) {
  NoteLengthChange(&it->second, 0);
  chains_.erase(it);
}

void VersionChains::Install(int64_t pk, Tid writer, bool deleted,
                            std::string_view image,
                            const std::string* base_image) {
  auto [it, inserted] = chains_.try_emplace(pk);
  ChainRef& chain = it->second;
  RowVersion* head = chain.head.load(std::memory_order_relaxed);
  if (head == nullptr && base_image != nullptr) {
    // First touch since this chain was pruned: by the pruning invariant the
    // pre-image is visible to every live snapshot, so seed it as the
    // all-visible base (vid 0).
    RowVersion* base = NewNode(0, /*deleted=*/false, *base_image);
    chain.head.store(base, std::memory_order_release);
    head = base;
    versions_live_++;
    installed_total_++;
    NoteLengthChange(&chain, chain.length + 1);
  }
  const uint64_t inflight = InflightStamp(writer);
  if (head != nullptr &&
      head->stamp_.load(std::memory_order_relaxed) == inflight) {
    // Same transaction writing the row again: the previous in-flight node
    // (which no snapshot can see) is replaced, not mutated — published
    // nodes stay immutable so latch-free readers never observe a torn
    // image. The old node becomes arena garbage until its epoch drops.
    RowVersion* repl = NewNode(inflight, deleted, image);
    repl->next_.store(head->next_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    chain.head.store(repl, std::memory_order_release);
    installed_total_++;
    dropped_total_++;
    return;
  }
  RowVersion* node = NewNode(inflight, deleted, image);
  node->next_.store(head, std::memory_order_relaxed);
  chain.head.store(node, std::memory_order_release);
  versions_live_++;
  installed_total_++;
  NoteLengthChange(&chain, chain.length + 1);
}

const RowVersion* VersionChains::ResolveChain(const RowVersion* head, Vid s) {
  for (const RowVersion* v = head; v != nullptr; v = v->next()) {
    const uint64_t w = v->stamp_.load(std::memory_order_acquire);
    if ((w & RowVersion::kInflightBit) == 0 && w <= s) return v;
  }
  return nullptr;
}

const RowVersion* VersionChains::NewestCommitted(const RowVersion* head) {
  for (const RowVersion* v = head; v != nullptr; v = v->next()) {
    if ((v->stamp_.load(std::memory_order_acquire) &
         RowVersion::kInflightBit) == 0) {
      return v;
    }
  }
  return nullptr;
}

bool VersionChains::Resolve(int64_t pk, Vid s, const RowVersion** v) const {
  auto it = chains_.find(pk);
  if (it == chains_.end()) return false;
  const RowVersion* head = it->second.head.load(std::memory_order_acquire);
  if (head == nullptr) return false;
  *v = ResolveChain(head, s);
  return true;
}

const RowVersion* VersionChains::Head(int64_t pk) const {
  auto it = chains_.find(pk);
  if (it == chains_.end()) return nullptr;
  return it->second.head.load(std::memory_order_acquire);
}

size_t VersionChains::TrimChainLocked(ChainRef* chain, Vid watermark) {
  // Keep the newest committed version with VID <= watermark (the base every
  // snapshot at or above the watermark resolves to) and everything newer;
  // unlink the rest. Unlinked nodes stay readable (their memory lives until
  // their epoch drops and the reader grace passes), so a traversal already
  // below the cut simply finishes over immutable data.
  RowVersion* base = nullptr;
  for (RowVersion* v = chain->head.load(std::memory_order_relaxed);
       v != nullptr; v = v->next_.load(std::memory_order_relaxed)) {
    const uint64_t w = v->stamp_.load(std::memory_order_relaxed);
    if ((w & RowVersion::kInflightBit) == 0 && w <= watermark) {
      base = v;
      break;
    }
  }
  if (base == nullptr) return 0;
  RowVersion* tail = base->next_.load(std::memory_order_relaxed);
  if (tail == nullptr) return 0;
  base->next_.store(nullptr, std::memory_order_release);
  size_t n = 0;
  for (RowVersion* v = tail; v != nullptr;
       v = v->next_.load(std::memory_order_relaxed)) {
    ++n;
  }
  versions_live_ -= n;
  dropped_total_ += n;
  NoteLengthChange(chain, chain->length - static_cast<uint32_t>(n));
  return n;
}

void VersionChains::Stamp(Tid tid, Vid vid, const std::vector<int64_t>& pks,
                          Vid trim_below) {
  const uint64_t inflight = InflightStamp(tid);
  for (int64_t pk : pks) {
    auto it = chains_.find(pk);
    if (it == chains_.end()) continue;
    for (RowVersion* v = it->second.head.load(std::memory_order_relaxed);
         v != nullptr; v = v->next_.load(std::memory_order_relaxed)) {
      if (v->stamp_.load(std::memory_order_relaxed) == inflight) {
        v->stamp_.store(vid, std::memory_order_release);
        arena_.NoteStamp(v->epoch_, vid);
      }
    }
    TrimChainLocked(&it->second, trim_below);
  }
}

void VersionChains::Abort(Tid tid, const std::vector<int64_t>& pks) {
  const uint64_t inflight = InflightStamp(tid);
  for (int64_t pk : pks) {
    auto it = chains_.find(pk);
    if (it == chains_.end()) continue;
    ChainRef& chain = it->second;
    size_t n = 0;
    RowVersion* prev = nullptr;
    RowVersion* v = chain.head.load(std::memory_order_relaxed);
    while (v != nullptr) {
      RowVersion* next = v->next_.load(std::memory_order_relaxed);
      if (v->stamp_.load(std::memory_order_relaxed) == inflight) {
        // Unlink v; its own next pointer is left intact so a reader already
        // standing on it continues over a valid (immutable) suffix.
        if (prev != nullptr) {
          prev->next_.store(next, std::memory_order_release);
        } else {
          chain.head.store(next, std::memory_order_release);
        }
        ++n;
      } else {
        prev = v;
      }
      v = next;
    }
    if (n != 0) {
      versions_live_ -= n;
      dropped_total_ += n;
      NoteLengthChange(&chain, chain.length - static_cast<uint32_t>(n));
    }
    if (chain.head.load(std::memory_order_relaxed) == nullptr) EraseChain(it);
  }
}

size_t VersionChains::Retract(Vid vid, const std::vector<int64_t>& pks) {
  size_t dropped = 0;
  for (int64_t pk : pks) {
    auto it = chains_.find(pk);
    if (it == chains_.end()) continue;
    ChainRef& chain = it->second;
    size_t n = 0;
    RowVersion* prev = nullptr;
    RowVersion* v = chain.head.load(std::memory_order_relaxed);
    while (v != nullptr) {
      RowVersion* next = v->next_.load(std::memory_order_relaxed);
      if (v->stamp_.load(std::memory_order_relaxed) == vid) {
        // Unlink v; its own next pointer is left intact so a reader already
        // standing on it continues over a valid (immutable) suffix. Readers
        // can only be standing here via a chain walk that started before the
        // unlink — no snapshot at `vid` was ever published (the retract
        // precondition), so none will *select* this version.
        if (prev != nullptr) {
          prev->next_.store(next, std::memory_order_release);
        } else {
          chain.head.store(next, std::memory_order_release);
        }
        ++n;
      } else {
        prev = v;
      }
      v = next;
    }
    if (n != 0) {
      versions_live_ -= n;
      dropped_total_ += n;
      dropped += n;
      NoteLengthChange(&chain, chain.length - static_cast<uint32_t>(n));
    }
    if (chain.head.load(std::memory_order_relaxed) == nullptr) EraseChain(it);
  }
  return dropped;
}

size_t VersionChains::DropInflight(int64_t pk) {
  auto it = chains_.find(pk);
  if (it == chains_.end()) return 0;
  ChainRef& chain = it->second;
  size_t n = 0;
  RowVersion* prev = nullptr;
  RowVersion* v = chain.head.load(std::memory_order_relaxed);
  while (v != nullptr) {
    RowVersion* next = v->next_.load(std::memory_order_relaxed);
    if ((v->stamp_.load(std::memory_order_relaxed) &
         RowVersion::kInflightBit) != 0) {
      if (prev != nullptr) {
        prev->next_.store(next, std::memory_order_release);
      } else {
        chain.head.store(next, std::memory_order_release);
      }
      ++n;
    } else {
      prev = v;
    }
    v = next;
  }
  if (n != 0) {
    versions_live_ -= n;
    dropped_total_ += n;
    NoteLengthChange(&chain, chain.length - static_cast<uint32_t>(n));
  }
  if (chain.head.load(std::memory_order_relaxed) == nullptr) EraseChain(it);
  return n;
}

size_t VersionChains::Prune(Vid watermark) {
  size_t dropped = 0;
  for (auto it = chains_.begin(); it != chains_.end();) {
    ChainRef& chain = it->second;
    dropped += TrimChainLocked(&chain, watermark);
    RowVersion* head = chain.head.load(std::memory_order_relaxed);
    if (head != nullptr &&
        head->next_.load(std::memory_order_relaxed) == nullptr) {
      const uint64_t w = head->stamp_.load(std::memory_order_relaxed);
      if ((w & RowVersion::kInflightBit) == 0 && w <= watermark) {
        // Single survivor below the watermark: it IS the live tree image
        // (or a committed delete of a key the tree no longer holds), so no
        // snapshot can need the chain — serve the row from the tree alone.
        dropped += 1;
        versions_live_--;
        dropped_total_++;
        EraseChain(it++);
        continue;
      }
    }
    ++it;
  }

  // Bulk epoch drop: seal the open epoch, pick every sealed epoch whose
  // newest stamped version is at or below the watermark, relocate the few
  // still-linked survivors out of them (copies into the fresh epoch —
  // readers mid-traversal keep the old immutable nodes until the grace
  // passes), then retire the epochs' chunks wholesale.
  arena_.SealEpoch();
  std::vector<uint32_t> droppable = arena_.DroppableEpochs(watermark);
  if (!droppable.empty()) {
    std::sort(droppable.begin(), droppable.end());
    auto in_drop_set = [&droppable](uint32_t epoch) {
      return std::binary_search(droppable.begin(), droppable.end(), epoch);
    };
    for (auto& [pk, chain] : chains_) {
      RowVersion* prev = nullptr;
      RowVersion* v = chain.head.load(std::memory_order_relaxed);
      while (v != nullptr) {
        RowVersion* next = v->next_.load(std::memory_order_relaxed);
        if (in_drop_set(v->epoch_)) {
          const uint64_t w = v->stamp_.load(std::memory_order_relaxed);
          RowVersion* copy = NewNode(w, v->deleted_, v->image());
          copy->next_.store(next, std::memory_order_relaxed);
          if ((w & RowVersion::kInflightBit) == 0) {
            arena_.NoteStamp(copy->epoch_, w);
          }
          if (prev != nullptr) {
            prev->next_.store(copy, std::memory_order_release);
          } else {
            chain.head.store(copy, std::memory_order_release);
          }
          relocations_total_++;
          prev = copy;
        } else {
          prev = v;
        }
        v = next;
      }
    }
    arena_.DropEpochs(droppable);
  }
  arena_.CollectGarbage();
  return dropped;
}

std::vector<int64_t> VersionChains::InflightPks() const {
  std::vector<int64_t> pks;
  for (const auto& [pk, chain] : chains_) {
    for (const RowVersion* v = chain.head.load(std::memory_order_relaxed);
         v != nullptr; v = v->next()) {
      if ((v->stamp_.load(std::memory_order_relaxed) &
           RowVersion::kInflightBit) != 0) {
        pks.push_back(pk);
        break;
      }
    }
  }
  return pks;
}

size_t VersionChains::ChainLength(int64_t pk) const {
  auto it = chains_.find(pk);
  return it == chains_.end() ? 0 : it->second.length;
}

size_t VersionChains::MaxChainLength() const {
  return lengths_.empty() ? 0 : *lengths_.rbegin();
}

MvccStats VersionChains::Stats() const {
  MvccStats s;
  s.chains = chains_.size();
  s.versions = versions_live_;
  s.max_chain_length = MaxChainLength();
  s.versions_installed = installed_total_;
  s.versions_dropped = dropped_total_;
  s.relocations = relocations_total_;
  const VersionArena::Stats a = arena_.stats();
  s.arena_bytes_live = a.bytes_live;
  s.arena_bytes_pending = a.bytes_pending;
  s.arena_bytes_retired = a.bytes_retired;
  s.arena_chunks = a.chunks_live;
  s.epochs_dropped = a.epochs_dropped;
  return s;
}

Vid SnapshotRegistry::RefreshLocked(Vid published) {
  const Vid watermark =
      live_.empty() ? published : std::min(published, live_.begin()->first);
  hint_.store(watermark, std::memory_order_relaxed);
  return watermark;
}

Vid SnapshotRegistry::Open(const std::atomic<Vid>& published) {
  std::lock_guard<std::mutex> g(mu_);
  const Vid vid = published.load(std::memory_order_acquire);
  live_[vid]++;
  RefreshLocked(vid);
  return vid;
}

bool SnapshotRegistry::OpenAt(Vid vid) {
  std::lock_guard<std::mutex> g(mu_);
  if (vid < hint_.load(std::memory_order_relaxed)) return false;
  live_[vid]++;
  return true;
}

void SnapshotRegistry::Close(Vid vid, const std::atomic<Vid>& published) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = live_.find(vid);
  if (it != live_.end() && --it->second == 0) live_.erase(it);
  RefreshLocked(published.load(std::memory_order_acquire));
}

Vid SnapshotRegistry::Watermark(const std::atomic<Vid>& published) {
  std::lock_guard<std::mutex> g(mu_);
  return RefreshLocked(published.load(std::memory_order_acquire));
}

void SnapshotRegistry::TryRefresh(const std::atomic<Vid>& published) {
  if (std::unique_lock<std::mutex> l(mu_, std::try_to_lock); l.owns_lock()) {
    RefreshLocked(published.load(std::memory_order_acquire));
  }
}

size_t SnapshotRegistry::live_count() const {
  std::lock_guard<std::mutex> g(mu_);
  size_t n = 0;
  for (const auto& [vid, count] : live_) n += count;
  return n;
}

}  // namespace imci
