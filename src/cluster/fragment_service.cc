#include "cluster/fragment_service.h"

#include <chrono>
#include <utility>

#include "common/coding.h"
#include "common/fault.h"

namespace imci {

namespace {

constexpr uint32_t kFragmentProtoVersion = 1;

void PutStatus(std::string* dst, const Status& s) {
  dst->push_back(static_cast<char>(s.code()));
  PutFixed32(dst, static_cast<uint32_t>(s.message().size()));
  dst->append(s.message());
}

Status GetStatus(ByteReader* r, Status* out) {
  uint8_t code;
  IMCI_RETURN_NOT_OK(r->U8(&code));
  if (code > static_cast<uint8_t>(Code::kInternal)) {
    return Status::Corruption("bad status code");
  }
  std::string msg;
  IMCI_RETURN_NOT_OK(r->Str(&msg));
  *out = Status(static_cast<Code>(code), std::move(msg));
  return Status::OK();
}

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

void EncodeFragmentRequest(const FragmentRequest& req, std::string* out) {
  PutFixed32(out, req.version);
  PutFixed64(out, req.read_vid);
  PutFixed64(out, req.catchup_timeout_us);
  PutFixed32(out, static_cast<uint32_t>(req.dop));
  PutPlan(out, req.plan);
}

Status DecodeFragmentRequest(const std::string& buf, FragmentRequest* out) {
  ByteReader r(buf);
  IMCI_RETURN_NOT_OK(r.U32(&out->version));
  if (out->version != kFragmentProtoVersion) {
    return Status::NotSupported("fragment protocol version");
  }
  IMCI_RETURN_NOT_OK(r.U64(&out->read_vid));
  IMCI_RETURN_NOT_OK(r.U64(&out->catchup_timeout_us));
  IMCI_RETURN_NOT_OK(r.I32(&out->dop));
  IMCI_RETURN_NOT_OK(GetPlan(&r, &out->plan));
  if (!r.done()) return Status::Corruption("fragment request trailer");
  return Status::OK();
}

void EncodeFragmentResponse(const FragmentResponse& rsp, std::string* out) {
  PutStatus(out, rsp.status);
  PutFixed64(out, rsp.applied_vid);
  PutFixed64(out, rsp.wait_us);
  PutFixed64(out, rsp.exec_us);
  PutRows(out, rsp.rows);
}

Status DecodeFragmentResponse(const std::string& buf, FragmentResponse* out) {
  ByteReader r(buf);
  IMCI_RETURN_NOT_OK(GetStatus(&r, &out->status));
  IMCI_RETURN_NOT_OK(r.U64(&out->applied_vid));
  IMCI_RETURN_NOT_OK(r.U64(&out->wait_us));
  IMCI_RETURN_NOT_OK(r.U64(&out->exec_us));
  IMCI_RETURN_NOT_OK(GetRows(&r, &out->rows));
  if (!r.done()) return Status::Corruption("fragment response trailer");
  return Status::OK();
}

std::string FragmentService::Handle(const std::string& request) {
  FragmentResponse rsp;
  FragmentRequest req;
  Status s = DecodeFragmentRequest(request, &req);
  if (s.ok()) s = Execute(req, &rsp);
  rsp.status = s;
  if (!s.ok()) rsp.rows.clear();
  std::string out;
  EncodeFragmentResponse(rsp, &out);
  return out;
}

Status FragmentService::Execute(const FragmentRequest& req,
                                FragmentResponse* rsp) {
  // Fault scope: policies armed against this node's name hit here (the
  // failover tests kill a specific participant's fragment service).
  fault::ScopedContext fault_scope(node_->name());
  IMCI_RETURN_NOT_OK(fault::Maybe("fragment.execute"));

  // Register the requested snapshot with the node's registry *before*
  // waiting, so no maintenance pass during the catch-up can discard a
  // version it reads. A VID below the registry's bound is refused: a past
  // pass may already have pruned, dropped or reclaimed under it, so the
  // coordinator must retry on a peer or fall back.
  SnapshotRegistry* snaps = node_->engine()->snapshots();
  if (!snaps->OpenAt(req.read_vid)) {
    rsp->applied_vid = node_->applied_vid();
    return Status::Busy("read view below the node's prune watermark");
  }

  // Bounded catch-up to the common snapshot. A node that can't cover the
  // coordinator's VID in time answers Busy — the coordinator then shrinks
  // the participant set rather than stalling the whole query on one
  // straggler.
  const auto wait_start = std::chrono::steady_clock::now();
  Status status = node_->WaitForVid(req.read_vid, req.catchup_timeout_us);
  rsp->wait_us = ElapsedUs(wait_start);
  rsp->applied_vid = node_->applied_vid();

  if (status.ok()) {
    const auto exec_start = std::chrono::steady_clock::now();
    status = node_->RunColumnAt(req.plan, req.read_vid, req.dop, &rsp->rows);
    rsp->exec_us = ElapsedUs(exec_start);
  }
  snaps->Close(req.read_vid, node_->pipeline()->applied_vid_ref());
  return status;
}

}  // namespace imci
