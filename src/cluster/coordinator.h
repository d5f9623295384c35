#ifndef POLARDB_IMCI_CLUSTER_COORDINATOR_H_
#define POLARDB_IMCI_CLUSTER_COORDINATOR_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/fragment_service.h"

namespace imci {

struct CoordinatorOptions {
  /// Upper bound on ROs recruited per query (the fleet may be larger).
  int max_participants = 8;
  /// Estimated scan volume below which distribution isn't worth the
  /// dispatch fixed cost and the query stays single-node.
  double min_rows_touched = 65536.0;
  /// Fan-out sizing: one fragment per this many estimated scanned rows
  /// (ChooseFanout), capped at the participant count.
  double rows_per_fragment = 262144.0;
  /// Bound on each participant's applied_vid catch-up to the common
  /// snapshot; stragglers beyond it answer Busy and are shed.
  uint64_t catchup_timeout_us = 500'000;
  /// Intra-fragment parallelism per node; 0 lets each node size via
  /// ChooseDop against its own token grant.
  int fragment_dop = 0;
};

/// Per-query distribution report (bench/test introspection).
struct DistQueryStats {
  int participants = 0;
  int fragments = 0;
  uint64_t retries = 0;     // fragment re-dispatches after a failed attempt
  uint64_t stragglers = 0;  // Busy answers from nodes behind the snapshot
  Vid snapshot_vid = 0;     // the common read VID
  uint64_t merge_us = 0;    // coordinator-side merge + completion time
  struct FragmentTiming {
    std::string node;  // peer that completed the fragment
    uint64_t wait_us = 0;
    uint64_t exec_us = 0;
    uint64_t rows = 0;
    int attempts = 1;
  };
  std::vector<FragmentTiming> timings;
};

/// Multi-RO query coordinator (the distributed half of the morsel executor):
/// cuts a column-engine plan into PK-range fragments, schedules them on N
/// healthy ROs at one common snapshot, and merges partials locally. The
/// common-snapshot protocol makes any fan-out bit-identical to single-RO
/// execution; failures at any stage abandon the attempt and report
/// `attempted=false`, so the caller's single-node path stays the safety
/// net — distribution is never a new client-visible error surface.
class QueryCoordinator {
 public:
  /// Produces session-claimed channels to the currently healthy ROs
  /// (claimed under the topology lock, so eviction drains rather than
  /// destroys a participant mid-query). Channels release their claim on
  /// destruction.
  using ChannelFactory =
      std::function<std::vector<std::unique_ptr<FragmentChannel>>()>;

  QueryCoordinator(const Catalog* catalog, CoordinatorOptions options,
                   ChannelFactory channels)
      : catalog_(catalog),
        options_(options),
        channels_(std::move(channels)),
        max_participants_(options.max_participants) {}

  /// Attempts distributed execution. `floor_vid` raises the common snapshot
  /// (strong consistency passes the RW's committed VID at submission; 0 for
  /// eventual reads). On success fills `out` and sets `*attempted=true`.
  /// `*attempted=false` means the plan or fleet wasn't eligible, or the
  /// distributed attempt was abandoned — the caller falls back to the
  /// single-node reference path. Never returns a fragment error.
  Status Execute(const LogicalRef& plan, Vid floor_vid, std::vector<Row>* out,
                 bool* attempted, DistQueryStats* stats = nullptr);

  /// Participant-count override (bench RO sweeps).
  void set_max_participants(int n) { max_participants_.store(n); }
  int max_participants() const { return max_participants_.load(); }

  const CoordinatorOptions& options() const { return options_; }

  // Lifetime counters.
  uint64_t queries_distributed() const { return queries_distributed_.load(); }
  uint64_t retries() const { return retries_.load(); }
  uint64_t stragglers() const { return stragglers_.load(); }
  uint64_t fallbacks() const { return fallbacks_.load(); }

 private:
  const Catalog* catalog_;
  CoordinatorOptions options_;
  ChannelFactory channels_;
  std::atomic<int> max_participants_;
  std::atomic<uint64_t> queries_distributed_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> stragglers_{0};
  std::atomic<uint64_t> fallbacks_{0};
};

}  // namespace imci

#endif  // POLARDB_IMCI_CLUSTER_COORDINATOR_H_
