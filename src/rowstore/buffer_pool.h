#ifndef POLARDB_IMCI_ROWSTORE_BUFFER_POOL_H_
#define POLARDB_IMCI_ROWSTORE_BUFFER_POOL_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "polarfs/polarfs.h"
#include "rowstore/page.h"

namespace imci {

/// Per-node page cache over PolarFS. The RW node's buffer pool holds the
/// authoritative working set and flushes dirty pages on checkpoint; each RO
/// node maintains its own pool, kept current by Phase#1 replay — the paper's
/// optimization of "maintaining the buffer pool of the row store like RW to
/// reduce the amount of data page reads" (§5.3).
///
/// Pages are reference-counted (PageRef) and the pool is unbounded: once a
/// page is resident it stays resident. RO replay (Phase#1) applies page
/// changes in place and never marks them dirty — the RW owns the shared
/// copy — so evicting an RO page and re-reading it from shared storage would
/// lose every change replayed since the RW last flushed it. A page hit is one
/// map lookup under the mutex.
class BufferPool {
 public:
  explicit BufferPool(PolarFs* fs) : fs_(fs) {}

  /// Fetches a page, reading it from shared storage on miss. Returns nullptr
  /// status NotFound if the page exists nowhere.
  Status GetPage(PageId id, PageRef* out);

  /// Returns the cached page or nullptr, without touching shared storage.
  PageRef GetCached(PageId id);

  /// Creates a fresh page in the pool (marked dirty).
  PageRef NewPage(PageId id, TableId table_id, PageType type);

  /// Inserts/overwrites a page object directly (used when applying SMO full
  /// page images during replay).
  void PutPage(PageRef page, bool dirty);

  void MarkDirty(PageId id);

  /// Flushes one page to shared storage (no-op if absent).
  Status FlushPage(PageId id);
  /// Flushes every dirty page (RW checkpoint of the row store).
  Status FlushAll();

  /// Flushes every resident page regardless of dirty state. RO replay
  /// mutates pages without dirty tracking; the RO-leader checkpoint uses
  /// this to persist replica pages (with their page LSNs) for fast scale-out.
  Status FlushAllResident();

 private:
  PolarFs* fs_;
  std::mutex mu_;
  std::unordered_map<PageId, PageRef> pages_;
  std::unordered_set<PageId> dirty_;
};

}  // namespace imci

#endif  // POLARDB_IMCI_ROWSTORE_BUFFER_POOL_H_
