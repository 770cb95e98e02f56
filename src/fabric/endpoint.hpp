#pragma once
// One guest's verbs endpoint: a verbs context plus PD, send and receive
// CQs, one QP and one registered buffer — the bundle every RDMA workload in
// the simulator starts from.
//
// make_endpoint performs the control path synchronously on the HCA (no
// hypercall cost, no simulated time), so a world can be wired before the
// simulation runs. Its call order — alloc_pd, create_cq x2, create_qp,
// allocate, reg_mr — fixes QP numbers and memory keys; keep it.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "fabric/verbs.hpp"

namespace resex::fabric {

struct Endpoint {
  hv::Domain* domain = nullptr;
  std::unique_ptr<Verbs> verbs;
  std::uint32_t pd = 0;
  CompletionQueue* send_cq = nullptr;
  CompletionQueue* recv_cq = nullptr;
  QueuePair* qp = nullptr;
  mem::GuestAddr buf = 0;    // page-aligned guest memory
  mem::RegisteredRegion mr;  // buf, local write + remote write/read
};

/// Build an endpoint for `domain` on `hca` with a `bytes`-long registered
/// buffer and two CQs of `cq_entries` each.
[[nodiscard]] inline Endpoint make_endpoint(Hca& hca, hv::Domain& domain,
                                            std::size_t bytes,
                                            std::uint32_t cq_entries) {
  Endpoint ep;
  ep.domain = &domain;
  ep.verbs = std::make_unique<Verbs>(hca, domain);
  ep.pd = hca.alloc_pd(domain);
  ep.send_cq = &hca.create_cq(domain, cq_entries);
  ep.recv_cq = &hca.create_cq(domain, cq_entries);
  ep.qp = &hca.create_qp(domain, ep.pd, *ep.send_cq, *ep.recv_cq);
  ep.buf = domain.allocator().allocate(bytes, mem::kPageSize);
  ep.mr = hca.reg_mr(ep.pd, domain, ep.buf, bytes,
                     mem::Access::kLocalWrite | mem::Access::kRemoteWrite |
                         mem::Access::kRemoteRead);
  return ep;
}

}  // namespace resex::fabric
