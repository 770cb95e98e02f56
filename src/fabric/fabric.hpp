#pragma once
// The switched fabric: switches, inter-switch trunks, routing and the
// attached HCAs. A packet leaving a host uplink enters it at the source
// HCA's switch (`route_from`) and hops switch by switch (`hop`) until it
// reaches the destination host's downlink.

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fabric/channel.hpp"
#include "fabric/congestion_hook.hpp"
#include "fabric/fault_hook.hpp"
#include "fabric/hca.hpp"
#include "fabric/queue_pair.hpp"
#include "fabric/types.hpp"
#include "hv/node.hpp"
#include "routing/table.hpp"
#include "sim/simulation.hpp"

namespace resex::fabric {

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
  /// scaled; the struct is heap-allocated so the reference stays stable. It
  /// is also its channel's sink context: a delivery hops at `to`.
  struct Trunk {
    FabricConfig config;
    std::unique_ptr<Channel> channel;
    Fabric* fabric = nullptr;
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
  void route_from(const Hca& src, detail::Packet&& pkt);
  /// One switch traversal: local destination -> downlink, otherwise forward
  /// on the trunk the routing table (or a direct trunk) names.
  void hop(std::uint32_t sw, detail::Packet&& pkt);

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
  /// Packet trains of the host uplinks (DESIGN.md §5). Shared so that the
  /// metrics registry's read hook, which may outlive the fabric, can tell.
  std::shared_ptr<TrainSet> trains_;
  QpNum next_qp_ = 1;
  std::uint32_t next_cq_ = 1;
  FaultHook* fault_hook_ = nullptr;
  CongestionHook* congestion_hook_ = nullptr;
};

}  // namespace resex::fabric
