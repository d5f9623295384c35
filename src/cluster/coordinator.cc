#include "cluster/coordinator.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>

#include "exec/merge.h"

namespace imci {

namespace {

/// Total dispatch attempts per fragment (first try + retries on surviving
/// peers) before the whole query falls back to single-node.
constexpr int kMaxAttemptsPerFragment = 3;

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

Status QueryCoordinator::Execute(const LogicalRef& plan, Vid floor_vid,
                                 std::vector<Row>* out, bool* attempted,
                                 DistQueryStats* stats) {
  *attempted = false;
  if (!plan) return Status::OK();

  // Recruit participants. Channels arrive session-claimed; trimming or
  // destroying them releases the claim.
  std::vector<std::unique_ptr<FragmentChannel>> chans = channels_();
  const int cap = std::max(0, max_participants_.load());
  if (static_cast<int>(chans.size()) > cap) chans.resize(cap);
  if (chans.size() < 2) return Status::OK();

  // Eligibility + fragment cutting, against one participant's statistics
  // (replicas converge to the same content; stats only steer cut points
  // and fan-out, not correctness).
  const StatsCollector* stats_src = chans[0]->stats();
  const PlanCost cost = EstimatePlan(plan, *stats_src);
  if (cost.rows_touched < options_.min_rows_touched) return Status::OK();
  const int fanout =
      ChooseFanout(plan, *stats_src, static_cast<int>(chans.size()),
                   options_.rows_per_fragment);
  if (fanout < 2) return Status::OK();
  FragmentSet fset;
  if (!CutFragments(plan, *catalog_, *stats_src, fanout, &fset).ok()) {
    return Status::OK();
  }
  // Common-snapshot choice: the max applied VID across participants (at
  // least one node needs no wait), raised to the caller's floor. Every
  // fragment executes at exactly this VID, so concurrent RW commits are
  // all-or-nothing visible across the whole fan-out.
  Vid read_vid = floor_vid;
  for (const auto& ch : chans) read_vid = std::max(read_vid, ch->applied_vid());

  const size_t F = fset.fragments.size();
  const size_t C = chans.size();
  std::vector<std::string> requests(F);
  for (size_t i = 0; i < F; ++i) {
    FragmentRequest req;
    req.read_vid = read_vid;
    req.catchup_timeout_us = options_.catchup_timeout_us;
    req.dop = options_.fragment_dop;
    req.plan = fset.fragments[i];
    EncodeFragmentRequest(req, &requests[i]);
  }

  struct FragRun {
    FragmentResponse rsp;
    bool ok = false;
    int attempts = 0;
    uint64_t rows = 0;
    uint64_t stragglers = 0;
    std::string node;
  };
  std::vector<FragRun> runs(F);
  // Guards the shared per-query channel-death map: a channel that failed a
  // submit (evicted node, fault injection) or answered Busy (straggler) is
  // dead to this query; retries go to surviving peers at the same VID.
  std::mutex mu;
  std::vector<uint8_t> dead(C, 0);

  auto run_fragment = [&](size_t fi) {
    FragRun& fr = runs[fi];
    size_t preferred = fi % C;
    while (fr.attempts < kMaxAttemptsPerFragment) {
      // Pick the preferred channel if usable, else the next surviving one.
      int ci = -1;
      {
        std::lock_guard<std::mutex> g(mu);
        for (size_t k = 0; k < C; ++k) {
          const size_t cand = (preferred + k) % C;
          if (!dead[cand] && chans[cand]->healthy()) {
            ci = static_cast<int>(cand);
            break;
          }
        }
      }
      if (ci < 0) return;  // no surviving peer
      if (fr.attempts > 0) retries_.fetch_add(1, std::memory_order_relaxed);
      fr.attempts++;
      std::string response;
      Status s = chans[ci]->Submit(requests[fi], &response);
      if (s.ok()) s = DecodeFragmentResponse(response, &fr.rsp);
      if (s.ok() && fr.rsp.status.ok()) {
        fr.ok = true;
        fr.rows = fr.rsp.rows.size();
        fr.node = chans[ci]->peer();
        return;
      }
      // Busy from a node behind the snapshot is a straggler (catch-up
      // timeout). Busy from a node at or past it is a refused registration
      // (the node already pruned below the snapshot): only the retry counts.
      if (s.ok() && fr.rsp.status.IsBusy() &&
          fr.rsp.applied_vid < read_vid) {
        fr.stragglers++;
        stragglers_.fetch_add(1, std::memory_order_relaxed);
      }
      {
        std::lock_guard<std::mutex> g(mu);
        dead[ci] = 1;
      }
      preferred = (ci + 1) % C;
    }
  };

  // One dispatch thread per fragment: the in-process channel executes on
  // the calling thread, so this is where inter-node parallelism comes from
  // (a TCP transport would make Submit a genuine remote round-trip and the
  // same structure still applies).
  {
    std::vector<std::thread> threads;
    threads.reserve(F);
    for (size_t i = 0; i < F; ++i) {
      threads.emplace_back(run_fragment, i);
    }
    for (std::thread& t : threads) t.join();
  }

  for (const FragRun& fr : runs) {
    if (!fr.ok) {
      // A fragment exhausted its attempts: abandon the distributed attempt
      // wholesale. The caller's single-node path answers the query, so the
      // client never sees this.
      fallbacks_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
  }

  // Merge partials and run the coordinator-side completion plan. The
  // completion plan contains no scans (it reads the merged rows through a
  // Values node), so it executes locally without store access.
  const auto merge_start = std::chrono::steady_clock::now();
  std::vector<Row> merged;
  if (fset.merge == FragmentMerge::kSortMerge) {
    std::vector<std::vector<Row>> sorted_runs;
    sorted_runs.reserve(F);
    for (FragRun& fr : runs) sorted_runs.push_back(std::move(fr.rsp.rows));
    merged =
        KWayMergeSorted(std::move(sorted_runs), fset.merge_keys,
                        fset.merge_limit);
  } else {
    // Fragment-index order, not completion order: the final fold visits
    // partials in a deterministic sequence.
    for (FragRun& fr : runs) {
      merged.insert(merged.end(),
                    std::make_move_iterator(fr.rsp.rows.begin()),
                    std::make_move_iterator(fr.rsp.rows.end()));
    }
  }
  fset.values_node->literal_rows = std::move(merged);
  ExecContext ctx;
  ctx.pool = nullptr;  // serial: merge volumes are small post-aggregation
  ctx.parallelism = 1;
  PhysOpRef root;
  std::vector<Row> result;
  Status s = LowerToColumnPlan(fset.final_plan, nullptr, &root);
  if (s.ok()) s = RunPlan(root, &ctx, &result);
  if (!s.ok()) {
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  *out = std::move(result);
  queries_distributed_.fetch_add(1, std::memory_order_relaxed);
  *attempted = true;

  if (stats != nullptr) {
    stats->participants = static_cast<int>(C);
    stats->fragments = static_cast<int>(F);
    stats->snapshot_vid = read_vid;
    stats->merge_us = ElapsedUs(merge_start);
    for (FragRun& fr : runs) {
      stats->retries += static_cast<uint64_t>(fr.attempts - 1);
      stats->stragglers += fr.stragglers;
      DistQueryStats::FragmentTiming t;
      t.node = std::move(fr.node);
      t.wait_us = fr.rsp.wait_us;
      t.exec_us = fr.rsp.exec_us;
      t.rows = fr.rows;
      t.attempts = fr.attempts;
      stats->timings.push_back(std::move(t));
    }
  }
  return Status::OK();
}

}  // namespace imci
