#ifndef POLARDB_IMCI_CLUSTER_FRAGMENT_SERVICE_H_
#define POLARDB_IMCI_CLUSTER_FRAGMENT_SERVICE_H_

#include <string>
#include <vector>

#include "cluster/ro_node.h"
#include "plan/fragment.h"

namespace imci {

/// RO-side fragment execution service and its transport abstraction. The
/// protocol is byte-in/byte-out (self-describing encodings from
/// exec/serde.h), so the in-process channel used today and a TCP transport
/// later share the request/response codec and the service unchanged.

struct FragmentRequest {
  uint32_t version = 1;
  /// Common snapshot: the node must cover this VID before executing, and
  /// reads exactly at it.
  Vid read_vid = 0;
  /// Bound on the applied_vid catch-up wait; beyond it the node answers
  /// Busy and the coordinator reassigns the fragment (straggler shedding).
  uint64_t catchup_timeout_us = 500000;
  /// Per-node intra-fragment parallelism; 0 lets the node size via
  /// ChooseDop (then clamp to its query-token grant either way).
  int32_t dop = 0;
  LogicalRef plan;
};

void EncodeFragmentRequest(const FragmentRequest& req, std::string* out);
Status DecodeFragmentRequest(const std::string& buf, FragmentRequest* out);

struct FragmentResponse {
  /// Execution outcome on the remote node (transport errors surface from
  /// FragmentChannel::Submit instead). Busy means "couldn't reach the
  /// common snapshot in time" or "can no longer read it" (the node pruned
  /// past it) — retryable on a peer.
  Status status;
  /// Node's applied VID when it answered: below read_vid on a catch-up
  /// timeout (a straggler), at or above it on a refused registration.
  Vid applied_vid = 0;
  uint64_t wait_us = 0;  // time spent catching up to read_vid
  uint64_t exec_us = 0;  // fragment execution time
  std::vector<Row> rows;
};

void EncodeFragmentResponse(const FragmentResponse& rsp, std::string* out);
Status DecodeFragmentResponse(const std::string& buf, FragmentResponse* out);

/// Executes fragment requests against one RO node: registers the requested
/// snapshot with the node's SnapshotRegistry (refused, as Busy, when it lies
/// below the registry's prune bound), waits a bounded time for the node to
/// catch up to it, then runs the plan through RoNode::RunColumnAt.
class FragmentService {
 public:
  explicit FragmentService(RoNode* node) : node_(node) {}

  /// Byte-level entry point (what a TCP server loop would call): decodes
  /// the request, executes, encodes the response. Never throws; malformed
  /// requests yield an encoded Corruption response.
  std::string Handle(const std::string& request);

  Status Execute(const FragmentRequest& req, FragmentResponse* rsp);

 private:
  RoNode* node_;
};

/// Transport-agnostic handle to one RO's fragment service. `Submit` is a
/// single round-trip of encoded bytes; the probe accessors back the
/// coordinator's participant selection and common-snapshot choice.
class FragmentChannel {
 public:
  virtual ~FragmentChannel() = default;
  virtual const std::string& peer() const = 0;
  virtual Status Submit(const std::string& request, std::string* response) = 0;
  virtual Vid applied_vid() const = 0;
  virtual bool healthy() const = 0;
  virtual const StatsCollector* stats() const = 0;
};

/// In-process backend: executes on the wrapped node from the calling
/// thread. The channel holds a session claim on the node for its lifetime
/// (construct it under the cluster topology lock, like Proxy::AcquireRo),
/// so fleet eviction drains — not destroys — a node mid-fragment.
class InProcessFragmentChannel : public FragmentChannel {
 public:
  explicit InProcessFragmentChannel(RoNode* node)
      : node_(node), service_(node) {
    node_->EnterSession();
  }
  ~InProcessFragmentChannel() override { node_->LeaveSession(); }

  const std::string& peer() const override { return node_->name(); }
  Status Submit(const std::string& request, std::string* response) override {
    *response = service_.Handle(request);
    return Status::OK();
  }
  Vid applied_vid() const override { return node_->applied_vid(); }
  bool healthy() const override { return node_->healthy(); }
  const StatsCollector* stats() const override { return node_->stats(); }

 private:
  RoNode* node_;
  FragmentService service_;
};

}  // namespace imci

#endif  // POLARDB_IMCI_CLUSTER_FRAGMENT_SERVICE_H_
