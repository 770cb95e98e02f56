#pragma once
// Guest-facing verbs interface (the "libibverbs" of the model).
//
// Control-path operations (PD allocation, memory registration, CQ/QP
// creation) traverse the paravirtual split driver: the guest traps to the
// dom0 backend and back, so each costs `hypercall_round_trip` of wall time
// plus `guest_cpu` of guest CPU. Data-path operations (post/poll) bypass the
// hypervisor and only cost the guest the WQE build / CQE parse cycles — the
// VMM-bypass asymmetry the paper's monitoring problem stems from.

#include <cstdint>

#include "fabric/hca.hpp"
#include "sim/task.hpp"

namespace resex::fabric {

class Verbs {
 public:
  /// Split-driver control-path costs of one trap to the dom0 backend: the
  /// wall-clock round trip, and the guest CPU it burns.
  static constexpr sim::SimDuration hypercall_round_trip =
      25 * sim::kMicrosecond;
  static constexpr sim::SimDuration guest_cpu = 2 * sim::kMicrosecond;

  Verbs(Hca& hca, hv::Domain& domain) : hca_(&hca), domain_(&domain) {}

  [[nodiscard]] Hca& hca() noexcept { return *hca_; }
  [[nodiscard]] hv::Domain& domain() noexcept { return *domain_; }
  [[nodiscard]] hv::Vcpu& vcpu() noexcept { return domain_->vcpu(); }

  // --- control path ----------------------------------------------------------

  [[nodiscard]] sim::ValueTask<std::uint32_t> alloc_pd() {
    co_await control_trip();
    co_return hca_->alloc_pd(*domain_);
  }

  [[nodiscard]] sim::ValueTask<mem::RegisteredRegion> reg_mr(
      std::uint32_t pd, mem::GuestAddr addr, std::size_t length,
      mem::Access access) {
    co_await control_trip();
    co_return hca_->reg_mr(pd, *domain_, addr, length, access);
  }

  [[nodiscard]] sim::ValueTask<CompletionQueue*> create_cq(
      std::uint32_t entries) {
    co_await control_trip();
    co_return &hca_->create_cq(*domain_, entries);
  }

  [[nodiscard]] sim::ValueTask<QueuePair*> create_qp(
      std::uint32_t pd, CompletionQueue& send_cq, CompletionQueue& recv_cq) {
    co_await control_trip();
    co_return &hca_->create_qp(*domain_, pd, send_cq, recv_cq);
  }

  // --- data path (VMM bypass) ------------------------------------------------

  /// Build the WQE in the SQ ring (guest memory), write the UAR doorbell
  /// record, return. Costs kPostCost of guest CPU; the HCA fetches the WQE
  /// asynchronously.
  [[nodiscard]] sim::Task post_send(QueuePair& qp, SendWr wr) {
    co_await vcpu().consume(kPostCost);
    if (qp.state() == QpState::kError) {
      // The QP errored out (retry budget exhausted): the WR is flushed with
      // an error CQE instead of reaching the wire. Applications observe the
      // failure through the CQ, exactly like ibv_post_send on a dead QP.
      hca_->post_send(qp, std::move(wr));
      co_return;
    }
    hca_->validate_post(qp, wr);
    qp.write_wqe(wr);
    hca_->ring_doorbell(qp);
  }

  /// Post a receive WQE (cheap; same CPU cost as a send post).
  [[nodiscard]] sim::Task post_recv(QueuePair& qp, RecvWr wr) {
    co_await vcpu().consume(kPostCost);
    qp.post_recv(wr);
  }

  /// Busy-poll the CQ until a CQE arrives; returns it. Burns the VCPU's
  /// scheduled time while waiting (what XenStat shows for polling guests).
  [[nodiscard]] sim::ValueTask<Cqe> next_cqe(CompletionQueue& cq) {
    vcpu().begin_busy_poll();
    for (;;) {
      co_await vcpu().consume(kPollCheckCost);
      if (auto cqe = cq.poll()) {
        vcpu().end_busy_poll();
        co_return *cqe;
      }
      co_await cq.wait(vcpu());
    }
  }

 private:
  /// Guest CPU cost to build + post one WQE (doorbell write included), and
  /// to notice/parse one CQE when polling.
  static constexpr sim::SimDuration kPostCost = 300;
  static constexpr sim::SimDuration kPollCheckCost = 200;

  [[nodiscard]] sim::Task control_trip() {
    co_await vcpu().consume(guest_cpu);
    auto& sim = vcpu().simulation();
    // Fault injection can slow the dom0 backend; any active control-path
    // delay window stretches the hypercall round trip.
    co_await sim.delay(hypercall_round_trip +
                       hca_->node().control_path_extra(sim.now()));
  }

  Hca* hca_;
  hv::Domain* domain_;
};

}  // namespace resex::fabric
