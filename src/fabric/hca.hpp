#pragma once
// Host Channel Adapter model.
//
// The HCA owns the node's TPT, its CQs and QPs, and the two link channels
// (uplink to the switch, downlink from it). The data path is autonomous:
// once a WQE is picked up from a doorbell, segmentation, transmission, DMA
// and completion generation proceed with no guest or hypervisor CPU — the
// VMM-bypass property that motivates the paper (the hypervisor cannot see or
// throttle this path directly).

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fabric/channel.hpp"
#include "fabric/completion_queue.hpp"
#include "fabric/queue_pair.hpp"
#include "fabric/types.hpp"
#include "hv/node.hpp"
#include "mem/tpt.hpp"

namespace resex::fabric {

class Fabric;

class Hca {
 public:
  Hca(Fabric& fabric, hv::Node& node, std::uint32_t hca_id);

  Hca(const Hca&) = delete;
  Hca& operator=(const Hca&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] hv::Node& node() noexcept { return *node_; }
  [[nodiscard]] Fabric& fabric() noexcept { return *fabric_; }
  [[nodiscard]] mem::Tpt& tpt() noexcept { return tpt_; }
  [[nodiscard]] Channel& uplink() noexcept { return *uplink_; }
  [[nodiscard]] Channel& downlink() noexcept { return *downlink_; }

  // --- control path (invoked via Verbs, which charges split-driver costs) ---

  /// Allocate a protection domain for a guest.
  [[nodiscard]] std::uint32_t alloc_pd(hv::Domain& domain);

  /// Register a guest buffer (pin + TPT entry).
  [[nodiscard]] mem::RegisteredRegion reg_mr(std::uint32_t pd,
                                             hv::Domain& domain,
                                             mem::GuestAddr addr,
                                             std::size_t length,
                                             mem::Access access);
  bool dereg_mr(mem::MemKey key);

  /// Create a completion queue whose ring lives in the guest's memory.
  [[nodiscard]] CompletionQueue& create_cq(hv::Domain& domain,
                                           std::uint32_t entries);

  /// Create a queue pair bound to the given CQs.
  [[nodiscard]] QueuePair& create_qp(hv::Domain& domain, std::uint32_t pd,
                                     CompletionQueue& send_cq,
                                     CompletionQueue& recv_cq);

  /// CQs belonging to a domain (the dom0 backend knows this mapping; IBMon
  /// uses it to find the rings to introspect).
  [[nodiscard]] std::vector<CompletionQueue*> domain_cqs(hv::DomainId id);

  // --- data path --------------------------------------------------------------

  /// Synchronous validation a post must pass (connected QP, sane header).
  void validate_post(const QueuePair& qp, const SendWr& wr) const;

  /// Direct WQE injection, bypassing the guest-memory SQ ring (kept for
  /// unit tests and tools; applications go through Verbs::post_send, which
  /// writes the real ring + doorbell).
  void post_send(QueuePair& qp, SendWr wr);

  /// Doorbell rung: after the pickup latency, fetch every WQE the doorbell
  /// record announces from the SQ ring in guest memory and process it.
  void ring_doorbell(QueuePair& qp);

  /// Incoming packet from the downlink.
  void on_packet(detail::Packet&& pkt);

  /// Drain a QP's posted receive WQEs, completing each with kWrFlushError on
  /// the receive CQ (what a real HCA does to the RQ when a QP enters the
  /// error state). Called automatically by the transport when a QP dies, and
  /// directly by applications tearing a group of QPs down: a consumer
  /// blocked polling the receive CQ observes the flushes instead of waiting
  /// forever for messages that can no longer arrive.
  void flush_recv_queue(QueuePair& qp);

  /// Fault injection: delay WQE fetches (doorbell pickups) until `until`.
  /// Models a stalled HCA processing pipeline; later calls extend, earlier
  /// windows never shrink. Self-clears once `until` passes.
  void stall_wqe_fetch_until(sim::SimTime until) noexcept {
    stall_until_ = std::max(stall_until_, until);
  }

 private:
  void process_wqe(QueuePair& qp, SendWr wr);
  void start_transfer(QueuePair& src, SendWr wr);
  void complete_send(detail::Transfer& t, CqeStatus status);
  void deliver(const detail::TransferRef& t);
  void deliver_write(const detail::TransferRef& t, bool with_imm);
  /// Schedule an RNR retry for `t` if budget remains; returns true if a
  /// retry was scheduled (the caller must not complete the transfer).
  bool retry_rnr(const detail::TransferRef& t);
  void dma_header(hv::Domain& domain, mem::GuestAddr addr,
                  const std::vector<std::byte>& header);

  // --- reliable transport (active while Fabric::reliable() holds) ----------
  /// Arm (or re-arm) `t`'s ack-timeout timer at the current RTO.
  void arm_retransmit(const detail::TransferRef& t);
  /// Ack timeout fired: retransmit the missing packets with backoff, or —
  /// budget exhausted — transition the origin QP to the error state.
  void on_retransmit_timeout(const detail::TransferRef& t);
  /// Receiver side: an arrival revealed a sequence hole — send a NAK to the
  /// sender (one in flight per transfer) so it resends without waiting out
  /// the ack timeout.
  void maybe_nak(const detail::TransferRef& t);
  /// Sender side, NAK received: immediately resend the packets missing below
  /// the receiver's high-water mark. Does not consume the transport retry
  /// budget and leaves the ack-timeout backstop armed.
  void fast_retransmit(const detail::TransferRef& t);
  /// Fatal transport failure: error the origin QP and complete with `status`.
  void fail_qp(detail::Transfer& t, CqeStatus status);
  /// Complete a WR with kWrFlushError without touching the wire (QP in the
  /// error state at post time).
  void flush_send(QueuePair& qp, const SendWr& wr);

  Fabric* fabric_;
  hv::Node* node_;
  std::uint32_t id_;
  mem::Tpt tpt_;
  std::unordered_map<std::uint32_t, hv::Domain*> pd_owner_;
  std::unordered_map<mem::MemKey, hv::Domain*> mr_owner_;
  std::unique_ptr<Channel> uplink_;
  std::unique_ptr<Channel> downlink_;
  std::deque<std::unique_ptr<CompletionQueue>> cqs_;
  std::unordered_map<std::uint32_t, hv::DomainId> cq_domain_;
  std::deque<std::unique_ptr<QueuePair>> qps_;
  std::uint32_t next_pd_ = 1;
  // Metric handles resolved once at construction so the data path never does
  // a by-name registry lookup (shared across HCAs: fabric-wide aggregates).
  obs::Counter* transfers_done_;
  obs::Counter* rnr_retries_;
  obs::Histogram* wire_latency_ns_;
  obs::Counter* retransmits_;
  obs::Counter* qp_fatal_errors_;
  obs::Counter* wr_flushes_;
  /// WQE fetches (doorbell pickups) are delayed until this time (fault
  /// injection); 0 / in the past = no stall.
  sim::SimTime stall_until_ = 0;
};

}  // namespace resex::fabric
