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
#include "fabric/congestion_hook.hpp"
#include "fabric/queue_pair.hpp"
#include "fabric/types.hpp"
#include "hv/node.hpp"
#include "mem/tpt.hpp"
#include "routing/table.hpp"

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
  void on_packet(detail::Packet pkt);

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
  friend class Fabric;

  void process_wqe(QueuePair& qp, SendWr wr);
  void start_transfer(QueuePair& src, QueuePair& dst, SendWr wr,
                      bool read_response);
  void complete_send(detail::Transfer& t, CqeStatus status);
  void deliver(const std::shared_ptr<detail::Transfer>& t);
  void deliver_write(const std::shared_ptr<detail::Transfer>& t,
                     bool with_imm);
  void deliver_send(const std::shared_ptr<detail::Transfer>& t);
  void serve_read(detail::Transfer& t);
  /// Schedule an RNR retry for `t` if budget remains; returns true if a
  /// retry was scheduled (the caller must not complete the transfer).
  bool retry_rnr(const std::shared_ptr<detail::Transfer>& t);
  void dma_header(hv::Domain& domain, mem::GuestAddr addr,
                  const std::vector<std::byte>& header);

  // --- reliable transport (active while Fabric::reliable() holds) ----------
  /// Arm (or re-arm) `t`'s ack-timeout timer at the current RTO.
  void arm_retransmit(const std::shared_ptr<detail::Transfer>& t);
  /// Ack timeout fired: retransmit the missing packets with backoff, or —
  /// budget exhausted — transition the origin QP to the error state.
  void on_retransmit_timeout(const std::shared_ptr<detail::Transfer>& t);
  /// Receiver side: an arrival revealed a sequence hole — send a NAK to the
  /// sender (one in flight per transfer) so it resends without waiting out
  /// the ack timeout.
  void maybe_nak(const std::shared_ptr<detail::Transfer>& t);
  /// Sender side, NAK received: immediately resend the packets missing below
  /// the receiver's high-water mark. Does not consume the transport retry
  /// budget and leaves the ack-timeout backstop armed.
  void fast_retransmit(const std::shared_ptr<detail::Transfer>& t);
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

/// The fabric: configuration, one or more switches with inter-switch trunk
/// links, and the set of attached HCAs.
///
/// Switch 0 always exists, so the historical single-switch topology needs no
/// setup: `add_node(node)` attaches to switch 0 and packets between two HCAs
/// on the same switch take exactly one hop (uplink -> downlink), unchanged.
/// Multi-switch topologies add switches with `add_switch()`, wire them with
/// directed trunk channel pairs via `add_trunk()`, and steer traffic with
/// per-switch routing tables (`add_route_candidate`); a switch without a
/// table entry falls back to a direct trunk to the destination switch. Every
/// trunk is a full Channel — store-and-forward hops compose: each hop charges
/// its own serialization + propagation, and cross-switch flows arbitrate
/// per-QP against whatever else shares the trunk (migration traffic
/// interferes with tenant QPs here).
class Fabric {
 public:
  explicit Fabric(sim::Simulation& sim, FabricConfig config = {});

  [[nodiscard]] sim::Simulation& simulation() noexcept { return sim_; }
  [[nodiscard]] const FabricConfig& config() const noexcept { return config_; }

  /// Attach a node to switch 0; creates its HCA and both link channels.
  Hca& add_node(hv::Node& node);
  /// Attach a node to a specific switch (which must already exist).
  Hca& add_node(hv::Node& node, std::uint32_t switch_id);

  /// Add a switch; returns its id. Switch 0 exists from construction.
  std::uint32_t add_switch();

  /// Connect switches `a` and `b` with a pair of directed trunk channels
  /// ("sw<a>->sw<b>" and the reverse). `bandwidth_scale` multiplies the
  /// fabric link rate for this trunk (fat-tree spine links are often fatter
  /// than host ports). Adding the same pair twice is an error.
  void add_trunk(std::uint32_t a, std::uint32_t b,
                 double bandwidth_scale = 1.0);

  /// Routing table entry: packets at switch `at` destined for an HCA on
  /// switch `dst` may leave on the trunk towards `via` (trunk-adjacent to
  /// `at`). Without an entry the switch requires a direct trunk to `dst`.
  /// Each call appends an equal-cost next hop — resex::routing multipath.
  /// The first candidate installed is the one static mode forwards on (and
  /// topology builders install the historical single route first, keeping
  /// static byte-identical); ECMP hashes flows across the whole set and
  /// adaptive picks the least-loaded member. Duplicate `via`s are ignored.
  void add_route_candidate(std::uint32_t at, std::uint32_t dst,
                           std::uint32_t via);

  /// The virtual lane a transfer travels after deadlock-avoidance lane
  /// shifts (routing.vl_shift): routes that go "down" the switch order —
  /// the direction that closes the cycle on ring-shaped route sets — move
  /// to the next lane for their whole path, bounded by the configured lane
  /// count. Identity while vl_shift is off.
  [[nodiscard]] std::uint8_t shifted_vl(std::uint8_t vl, std::uint32_t src_hca,
                                        std::uint32_t dst_hca) const;

  [[nodiscard]] std::uint32_t switch_count() const noexcept {
    return switch_count_;
  }
  [[nodiscard]] std::uint32_t switch_of(std::uint32_t hca_id) const {
    return hca_switch_.at(hca_id);
  }
  /// The directed trunk channel a->b, or nullptr if none exists.
  [[nodiscard]] Channel* trunk(std::uint32_t a, std::uint32_t b) noexcept;

  /// Connect two queue pairs point-to-point (RC semantics).
  static void connect(QueuePair& a, QueuePair& b);

  [[nodiscard]] QpNum next_qp_num() noexcept { return next_qp_++; }
  [[nodiscard]] std::uint32_t next_cq_id() noexcept { return next_cq_++; }

  [[nodiscard]] std::size_t hca_count() const noexcept {
    return hcas_.size();
  }
  [[nodiscard]] Hca& hca(std::size_t i) { return *hcas_.at(i); }

  /// Install (or clear) a fault hook on every channel of the fabric. While a
  /// hook is installed the fabric also runs its RC reliability machinery
  /// (per-transfer ack timers, retransmission, retry budgets) — without one,
  /// and with infinite switch buffers, links are perfect and the original
  /// fast path runs unchanged.
  void set_fault_hook(FaultHook* hook) noexcept;
  [[nodiscard]] FaultHook* fault_hook() const noexcept { return fault_hook_; }
  /// True iff reliable-transport recovery is active: a fault hook is set, or
  /// finite switch buffers make the fabric lossy on its own (tail-dropped
  /// packets fall back to the same NAK/RTO machinery).
  [[nodiscard]] bool reliable() const noexcept {
    return fault_hook_ != nullptr || config_.lossy();
  }

  /// Install (or clear) the congestion hook: the destination HCA reports
  /// every ECN-marked data arrival to it (DCQCN's CNP generation point).
  /// Normally installed by congestion::RateController's constructor.
  void set_congestion_hook(CongestionHook* hook) noexcept {
    congestion_hook_ = hook;
  }
  [[nodiscard]] CongestionHook* congestion_hook() const noexcept {
    return congestion_hook_;
  }

  /// Enumerate the directed trunk channels in creation order (deterministic).
  /// The broker uses this to price trunk congestion per leaf switch.
  void for_each_trunk(
      const std::function<void(std::uint32_t from, std::uint32_t to,
                               Channel& channel)>& fn);

 private:
  friend class Hca;
  /// A directed inter-switch link. The per-trunk config copy exists because
  /// Channel holds its FabricConfig by reference and trunk bandwidth may be
  /// scaled; the struct is heap-allocated so the reference stays stable.
  struct Trunk {
    FabricConfig config;
    std::unique_ptr<Channel> channel;
    std::uint32_t from = 0;
    std::uint32_t to = 0;
  };

  /// The shared buffer pool of switch `sw` (nullptr unless
  /// config.switch_pool_bytes is set; created lazily, stable address).
  [[nodiscard]] SwitchBufferPool* switch_pool(std::uint32_t sw);
  /// The channels feeding switch `sw` — host uplinks of its HCAs plus
  /// incoming trunks: the targets of PFC pause frames sent by `sw`'s egress
  /// ports. Heap-allocated so the pointer handed to ports stays stable.
  [[nodiscard]] std::vector<Channel*>* switch_feeders(std::uint32_t sw);

  /// An uplink handed the switch fabric a packet: hop it from the source
  /// HCA's switch towards the destination HCA.
  void route_from(const Hca& src, detail::Packet pkt);
  /// One switch traversal: local destination -> downlink, otherwise forward
  /// on the trunk the routing table (or a direct trunk) names.
  void hop(std::uint32_t sw, detail::Packet pkt);

  /// Compile the per-switch dense next-hop table: fill direct-trunk
  /// fallbacks for pairs without explicit routes, then flatten. Runs lazily
  /// on the first hop after any topology/route mutation.
  void finalize_routes();
  /// Candidate index the packet forwards on at `sw` (mode-dependent).
  [[nodiscard]] std::uint32_t pick_candidate(
      std::uint32_t sw, const detail::Packet& pkt,
      routing::NextHopTable<Channel>::Span span);

  static std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) noexcept {
    return (std::uint64_t{a} << 32) | b;
  }

  sim::Simulation& sim_;
  FabricConfig config_;
  std::vector<std::unique_ptr<Hca>> hcas_;
  std::uint32_t switch_count_ = 1;
  std::vector<std::uint32_t> hca_switch_;  // hca id -> switch id
  std::vector<std::unique_ptr<Trunk>> trunks_;
  std::vector<std::unique_ptr<SwitchBufferPool>> pools_;         // per switch
  std::vector<std::unique_ptr<std::vector<Channel*>>> feeders_;  // per switch
  std::unordered_map<std::uint64_t, Channel*> trunk_by_pair_;
  /// Per-switch next-hop candidates, compiled into a dense flat table for
  /// the forwarding hot path (replaces the historical (at,dst)->via map).
  routing::NextHopTable<Channel> nexthop_;
  /// Adaptive routing: the candidate index flow (switch, QP) currently
  /// forwards on; re-evaluated at flow start and on pause escape.
  std::unordered_map<std::uint64_t, std::uint32_t> flow_port_;
  obs::Counter* switch_hops_ = nullptr;
  obs::Counter* route_rehash_ = nullptr;
  QpNum next_qp_ = 1;
  std::uint32_t next_cq_ = 1;
  FaultHook* fault_hook_ = nullptr;
  CongestionHook* congestion_hook_ = nullptr;
};

}  // namespace resex::fabric
