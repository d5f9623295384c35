#ifndef POLARDB_IMCI_ARCHIVE_SNAPSHOT_STORE_H_
#define POLARDB_IMCI_ARCHIVE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace imci {

class PolarFs;

/// Restore anchors for point-in-time recovery. Every completed checkpoint
/// (and the post-load base image, anchor id 0) is registered here as a
/// self-contained snapshot: a point-in-time copy of the shared page store, the
/// row-store control files (registry, base_lsn) and — for checkpoint
/// anchors — the column-index checkpoint directory, all under a checksummed
/// manifest. Keeping a copy is what makes the anchor usable later: the
/// live page store is overwritten in place by subsequent flushes, so "the
/// pages as of checkpoint N" exist nowhere else once checkpoint N+1 runs.
///
/// Cluster::RestoreToLsn picks the anchor with the largest start_lsn at or
/// below the target LSN, primes a fresh PolarFs from it (Restore), and
/// replays the archived + live redo suffix on top.
///
/// Layout (all names in the owning PolarFs's file namespace):
///   archive/snap/<ckpt_id>/PAGES      copied page images
///   archive/snap/<ckpt_id>/FILES      row-store + checkpoint files
///   archive/snap/<ckpt_id>/MANIFEST   sizes + hashes of the two blobs
///   archive/snap/INDEX                checksummed anchor list
class SnapshotStore {
 public:
  struct Anchor {
    uint64_t ckpt_id = 0;  // 0 == the post-load base image
    Vid csn = 0;           // checkpoint CSN (0 for the base anchor)
    Lsn start_lsn = 0;     // redo LSN replay must start from (exclusive)
    uint64_t bytes = 0;    // archived payload size (pages + files)
  };

  explicit SnapshotStore(PolarFs* fs) : fs_(fs) {}

  /// Retention cap: keep only the newest `keep` anchors (by checkpoint id);
  /// 0 (default) keeps everything. Enforced at Register time — when a new
  /// anchor pushes the count over the cap, the oldest anchors' copied blobs
  /// are deleted and the index rewritten. Dropping anchors raises the GC
  /// floor (GcFloorLsn), which is what makes old archived log segments
  /// eligible for reclamation.
  void set_retention(size_t keep) { retention_ = keep; }
  size_t retention() const { return retention_; }

  /// The smallest start_lsn among retained anchors: no restore can ever
  /// replay log at or below it (every anchor starts at or above). 0 — the
  /// conservative "nothing reclaimable" floor — when no anchor exists or
  /// the oldest anchor starts at 0.
  Lsn GcFloorLsn() const;

  /// Copies the current shared state as a restore anchor. Idempotent per
  /// ckpt_id (a re-registration replaces the anchor). Call quiesced — at a
  /// checkpoint boundary, right after the page flush — so the copied pages
  /// form one consistent cut.
  Status Register(uint64_t ckpt_id, Vid csn, Lsn start_lsn);

  /// The anchor with the largest start_lsn <= `lsn` (ties broken toward the
  /// newer checkpoint — less log to replay). NotFound when every anchor
  /// starts above `lsn`.
  Status FindAnchor(Lsn lsn, Anchor* out) const;

  /// All registered anchors (verified against the index checksum).
  Status Anchors(std::vector<Anchor>* out) const;

  /// Primes `dest` with the anchor's copied state: pages, row-store files,
  /// and (for checkpoint anchors) the column checkpoint directory plus a
  /// CURRENT pointer naming it. Verifies every blob against the manifest
  /// hashes — a torn or truncated anchor is an error, never a silent
  /// partial restore.
  Status Restore(const Anchor& a, PolarFs* dest) const;

 private:
  static std::string AnchorDir(uint64_t ckpt_id);
  Status LoadIndex(std::vector<Anchor>* out) const;
  Status StoreIndexLocked(const std::vector<Anchor>& anchors);

  PolarFs* fs_;
  std::mutex mu_;  // serializes Register's index read-modify-write
  size_t retention_ = 0;  // newest anchors kept; 0 == unbounded
};

}  // namespace imci

#endif  // POLARDB_IMCI_ARCHIVE_SNAPSHOT_STORE_H_
