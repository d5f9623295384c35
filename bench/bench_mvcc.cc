// MVCC substrate microbench (arena tentpole): install/stamp, latch-free
// resolve, and checkpoint-prune throughput over VersionChains, plus the
// memory claim the arena layout makes — bytes per version against the
// legacy std::map<Vid, std::string> chain layout, both measured through the
// allocator (glibc mallinfo2) rather than estimated.
//
// Self-gating: exits non-zero when the arena layout fails to beat the
// legacy layout on bytes/version, when the checkpoint prune fails to
// perform a bulk epoch drop, or when pruning leaves chains behind.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <malloc.h>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/arena.h"
#include "common/latch.h"
#include "rowstore/mvcc.h"

namespace imci {
namespace bench {
namespace {

// Deterministic xorshift so runs are comparable across commits.
uint64_t Rng(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return *state = x;
}

std::string MakeImage(size_t bytes, uint64_t salt) {
  std::string img(bytes, '\0');
  for (size_t i = 0; i + 8 <= bytes; i += 8) {
    std::memcpy(&img[i], &salt, sizeof(salt));
  }
  return img;
}

// Heap bytes currently handed out by the allocator. Arena chunks and the
// legacy layout's tree nodes / strings all come from malloc, so deltas of
// this are an apples-to-apples footprint measurement.
size_t HeapBytesInUse() {
  return static_cast<size_t>(mallinfo2().uordblks);
}

// The pre-arena chain layout, reconstructed for the A/B: one heap string
// per version inside a std::map keyed newest-first. Only the memory shape
// matters here, not the full API.
struct LegacyChains {
  struct Version {
    std::string image;
    bool deleted = false;
  };
  std::map<int64_t, std::map<uint64_t, Version>> chains;
};

struct Footprint {
  double arena_bytes_per_version = 0;
  double legacy_bytes_per_version = 0;
  double arena_exact_bytes_per_version = 0;  // arena accounting, no malloc slack
};

Footprint MeasureFootprint(int rows, int versions_per_row, size_t image_bytes) {
  Footprint f;
  const uint64_t total = static_cast<uint64_t>(rows) * versions_per_row;
  {
    auto legacy = std::make_unique<LegacyChains>();
    const size_t before = HeapBytesInUse();
    for (int pk = 0; pk < rows; ++pk) {
      auto& chain = legacy->chains[pk];
      for (int v = 0; v < versions_per_row; ++v) {
        chain.emplace(static_cast<uint64_t>(v + 1),
                      LegacyChains::Version{MakeImage(image_bytes, pk), false});
      }
    }
    f.legacy_bytes_per_version =
        static_cast<double>(HeapBytesInUse() - before) / total;
  }
  {
    auto chains = std::make_unique<VersionChains>();
    const std::string base = MakeImage(image_bytes, 0);
    const size_t before = HeapBytesInUse();
    Vid vid = 0;
    for (int pk = 0; pk < rows; ++pk) {
      for (int v = 0; v < versions_per_row; ++v) {
        const Tid tid = static_cast<Tid>(vid + 1);
        chains->Install(pk, tid, false, MakeImage(image_bytes, pk),
                        v == 0 ? &base : nullptr);
        chains->Stamp(tid, ++vid, {pk}, /*trim_below=*/0);
      }
    }
    // The seeded base rides along uncounted by `total`; at versions_per_row
    // >= 8 it shifts the mean by <13% in the arena's *disfavor*, so the gate
    // stays conservative.
    f.arena_bytes_per_version =
        static_cast<double>(HeapBytesInUse() - before) / total;
    const MvccStats s = chains->Stats();
    f.arena_exact_bytes_per_version =
        s.versions == 0 ? 0 : static_cast<double>(s.arena_bytes_live) / s.versions;
  }
  return f;
}

double InstallStampThroughput(uint64_t ops, int hot_pks, size_t image_bytes) {
  VersionChains chains;
  const std::string base = MakeImage(image_bytes, 1);
  Vid published = 0;
  Timer timer;
  for (uint64_t i = 0; i < ops; ++i) {
    const int64_t pk = static_cast<int64_t>(i % hot_pks);
    const Tid tid = static_cast<Tid>(i + 1);
    chains.Install(pk, tid, false, MakeImage(image_bytes, i),
                   published == 0 ? &base : nullptr);
    // Commit-path shape: stamp + trim below the published point, which the
    // commit itself then advances (hot chains stay short, as in RowTable).
    chains.Stamp(tid, published + 1, {pk}, published);
    ++published;
  }
  return static_cast<double>(ops) / timer.ElapsedSeconds();
}

// The RowTable read protocol: guard first, latch only to harvest the head,
// resolve latch-free. Writers keep appending so readers race real installs.
double ResolveThroughput(int readers, double secs, int pks, int depth,
                         size_t image_bytes) {
  VersionChains chains;
  WriterPrioritySharedMutex latch;  // RowTable's table latch
  std::atomic<Vid> published{0};
  const std::string base = MakeImage(image_bytes, 2);
  Vid vid = 0;
  for (int pk = 0; pk < pks; ++pk) {
    for (int v = 0; v < depth; ++v) {
      const Tid tid = static_cast<Tid>(vid + 1);
      chains.Install(pk, tid, false, MakeImage(image_bytes, vid),
                     v == 0 ? &base : nullptr);
      chains.Stamp(tid, ++vid, {pk}, /*trim_below=*/0);
    }
  }
  published.store(vid, std::memory_order_release);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ops{0};
  std::vector<std::thread> threads;
  threads.reserve(readers + 1);
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      uint64_t rng = 0x9E3779B97F4A7C15ull + r;
      uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t pk = static_cast<int64_t>(Rng(&rng) % pks);
        ArenaReadGuard guard;
        const RowVersion* head = nullptr;
        Vid s = 0;
        {
          std::shared_lock<WriterPrioritySharedMutex> g(latch);
          s = published.load(std::memory_order_acquire);
          head = chains.Head(pk);
        }
        // Snapshots spread over the whole history exercise deep walks.
        s = 1 + Rng(&rng) % s;
        const RowVersion* v = VersionChains::ResolveChain(head, s);
        if (v != nullptr) ++local;
      }
      ops.fetch_add(local, std::memory_order_relaxed);
    });
  }
  // One writer keeps the chains moving (no trim — depth must persist).
  threads.emplace_back([&] {
    Vid next = vid;
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const int64_t pk = static_cast<int64_t>(i++ % pks);
      const Tid tid = static_cast<Tid>(next + 1);
      std::unique_lock<WriterPrioritySharedMutex> g(latch);
      chains.Install(pk, tid, false, MakeImage(image_bytes, next), nullptr);
      chains.Stamp(tid, next + 1, {pk}, /*trim_below=*/0);
      published.store(++next, std::memory_order_release);
    }
  });
  Timer timer;
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<uint64_t>(secs * 1e6)));
  stop.store(true);
  for (auto& t : threads) t.join();
  return static_cast<double>(ops.load()) / timer.ElapsedSeconds();
}

struct PruneResult {
  double versions_per_s = 0;
  uint64_t epochs_dropped = 0;
  uint64_t relocations = 0;
  uint64_t chains_left = 0;
};

PruneResult PruneThroughput(int rows, int versions_per_row,
                            size_t image_bytes) {
  VersionChains chains;
  const std::string base = MakeImage(image_bytes, 3);
  Vid vid = 0;
  for (int v = 0; v < versions_per_row; ++v) {
    for (int pk = 0; pk < rows; ++pk) {
      const Tid tid = static_cast<Tid>(vid + 1);
      chains.Install(pk, tid, false, MakeImage(image_bytes, vid),
                     v == 0 ? &base : nullptr);
      chains.Stamp(tid, ++vid, {pk}, /*trim_below=*/0);
    }
    // Checkpoint cadence between rounds seals epochs without trimming
    // (watermark 0), building the multi-epoch history a real workload has.
    if (v % 4 == 3) chains.Prune(0);
  }
  const uint64_t history = chains.Stats().versions;
  Timer timer;
  const size_t dropped = chains.Prune(vid);
  const double secs = timer.ElapsedSeconds();
  PruneResult r;
  r.versions_per_s = dropped / (secs > 0 ? secs : 1e-9);
  const MvccStats s = chains.Stats();
  r.epochs_dropped = s.epochs_dropped;
  r.relocations = s.relocations;
  r.chains_left = s.chains;
  (void)history;
  return r;
}

}  // namespace
}  // namespace bench
}  // namespace imci

int main(int argc, char** argv) {
  using namespace imci;
  using namespace imci::bench;
  const bool smoke = Flag(argc, argv, "smoke", 0) != 0;
  const double secs = Flag(argc, argv, "secs", smoke ? 0.2 : 1.0);
  const size_t image_bytes =
      static_cast<size_t>(Flag(argc, argv, "image_bytes", 96));
  const uint64_t write_ops =
      static_cast<uint64_t>(Flag(argc, argv, "ops", smoke ? 50000 : 500000));
  const int fp_rows = smoke ? 2000 : 10000;
  const int fp_depth = 8;

  std::printf("# MVCC substrate | arena version chains, latch-free reads | "
              "image %zuB%s\n", image_bytes, smoke ? " | smoke" : "");
  BenchReport report("mvcc");
  report.Label("substrate", "arena-version-chains");
  report.Metric("image_bytes", static_cast<double>(image_bytes));
  report.Metric("smoke", smoke ? 1 : 0);

  // --- Memory footprint: arena vs legacy map-of-strings chains -------------
  const Footprint fp = MeasureFootprint(fp_rows, fp_depth, image_bytes);
  // Sanitizer allocators bypass glibc malloc, so mallinfo2 reads zero there;
  // the A/B is only meaningful (and only gated) on plain builds.
  const bool footprint_measured = fp.legacy_bytes_per_version > 0 &&
                                  fp.arena_bytes_per_version > 0;
  if (footprint_measured) {
    std::printf("bytes/version: arena %.1f (exact %.1f) vs legacy %.1f "
                "(%.0f%% of legacy)\n",
                fp.arena_bytes_per_version, fp.arena_exact_bytes_per_version,
                fp.legacy_bytes_per_version,
                100.0 * fp.arena_bytes_per_version /
                    fp.legacy_bytes_per_version);
  } else {
    std::printf("bytes/version: allocator not measurable (sanitizer build?) "
                "- arena exact %.1f, footprint gate skipped\n",
                fp.arena_exact_bytes_per_version);
  }
  report.Metric("arena_bytes_per_version", fp.arena_bytes_per_version);
  report.Metric("arena_exact_bytes_per_version",
                fp.arena_exact_bytes_per_version);
  report.Metric("legacy_bytes_per_version", fp.legacy_bytes_per_version);

  // --- Write path: install + stamp + commit-path trim ----------------------
  const double install_tput = InstallStampThroughput(write_ops, 64, image_bytes);
  std::printf("install+stamp: %.0f versions/s (%d hot pks)\n", install_tput, 64);
  report.Metric("install_stamp_per_s", install_tput);

  // --- Read path: latch-free resolution under concurrent writes ------------
  std::printf("%-10s %14s\n", "readers", "resolves/s");
  double resolve_4 = 0;
  for (int readers : {1, 4}) {
    const double tput =
        ResolveThroughput(readers, secs, /*pks=*/256, /*depth=*/16,
                          image_bytes);
    if (readers == 4) resolve_4 = tput;
    std::printf("%-10d %14.0f\n", readers, tput);
    report.Row().Set("readers", readers).Set("resolves_per_s", tput);
  }

  // --- Checkpoint prune: bulk epoch drop ------------------------------------
  const PruneResult pr =
      PruneThroughput(smoke ? 2000 : 20000, 12, image_bytes);
  std::printf("prune: %.0f versions/s dropped | epochs_dropped %llu | "
              "relocations %llu | chains left %llu\n",
              pr.versions_per_s,
              static_cast<unsigned long long>(pr.epochs_dropped),
              static_cast<unsigned long long>(pr.relocations),
              static_cast<unsigned long long>(pr.chains_left));
  report.Metric("prune_versions_per_s", pr.versions_per_s);
  report.Metric("epochs_dropped", static_cast<double>(pr.epochs_dropped));
  report.Metric("relocations", static_cast<double>(pr.relocations));
  report.Write();

  // --- Gates ----------------------------------------------------------------
  bool ok = true;
  if (footprint_measured &&
      fp.arena_bytes_per_version >= fp.legacy_bytes_per_version) {
    std::printf("GATE FAIL: arena bytes/version %.1f >= legacy %.1f\n",
                fp.arena_bytes_per_version, fp.legacy_bytes_per_version);
    ok = false;
  }
  if (pr.epochs_dropped == 0) {
    std::printf("GATE FAIL: checkpoint prune performed no bulk epoch drop\n");
    ok = false;
  }
  if (pr.chains_left != 0) {
    std::printf("GATE FAIL: prune at max VID left %llu chains\n",
                static_cast<unsigned long long>(pr.chains_left));
    ok = false;
  }
  if (resolve_4 <= 0) {
    std::printf("GATE FAIL: no latch-free resolves completed\n");
    ok = false;
  }
  std::printf(ok ? "GATE OK: arena layout smaller than legacy, bulk epoch "
                   "drop observed\n"
                 : "");
  return ok ? 0 : 1;
}
