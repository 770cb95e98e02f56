#pragma once
// Unidirectional, bandwidth-limited link channel: one or more virtual lanes
// (one unless qos is on), with per-QP round-robin packet arbitration inside
// each.
//
// This is where interference physically happens: all QPs sharing a host port
// contend here, one MTU at a time. A VM streaming 2 MB messages and a VM
// sending 64 KB messages interleave packet-by-packet, so the small flow's
// transfer time inflates with the large flow's offered load — the effect the
// paper's Figures 1-4 measure.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fabric/fault_hook.hpp"
#include "fabric/types.hpp"
#include "qos/arbiter.hpp"
#include "sim/ring.hpp"
#include "sim/simulation.hpp"

namespace resex::fabric {

/// Deterministic RED-style ECN marking decision for one switch port. No RNG:
/// a fractional accumulator realizes the linear marking ramp exactly — below
/// kmin nothing is ever marked, at or above kmax everything is, in between a
/// packet seeing occupancy q is marked at rate (q - kmin + 1)/(kmax - kmin + 1)
/// via accumulator carry. Deterministic by construction, so congested runs
/// stay byte-identical at any --jobs.
class EcnMarker {
 public:
  /// Thresholds are in occupancy units: packets normally, bytes when the
  /// port runs byte-based accounting (the caller scales by the MTU).
  EcnMarker(std::uint64_t kmin_units, std::uint64_t kmax_units) noexcept
      : kmin_(kmin_units), kmax_(kmax_units) {}
  EcnMarker() noexcept = default;  // no thresholds: never marks

  /// Decide for one packet that finds `occupancy` units queued ahead of it.
  [[nodiscard]] bool on_enqueue(std::uint64_t occupancy) noexcept {
    if (kmax_ == 0) return false;
    if (occupancy >= kmax_) return true;
    if (occupancy < kmin_) return false;
    accum_ += static_cast<double>(occupancy - kmin_ + 1) /
              static_cast<double>(kmax_ - kmin_ + 1);
    if (accum_ >= 1.0) {
      accum_ -= 1.0;
      return true;
    }
    return false;
  }

 private:
  std::uint64_t kmin_ = 0;
  std::uint64_t kmax_ = 0;
  double accum_ = 0.0;
};

/// Shared egress buffer of one switch with Choudhury-Hahne dynamic
/// thresholds: every port of the switch admits a packet only while its own
/// occupancy is below `alpha * (free pool bytes)`. Ports acquire on accept
/// and release when the packet wins arbitration (it then occupies the wire,
/// not the buffer). Owned by the Fabric, one per switch.
class SwitchBufferPool {
 public:
  SwitchBufferPool(std::uint64_t capacity_bytes, double alpha) noexcept
      : capacity_(capacity_bytes), alpha_(alpha) {}

  void acquire(std::uint64_t bytes) noexcept { occupied_ += bytes; }
  void release(std::uint64_t bytes) noexcept { occupied_ -= bytes; }
  [[nodiscard]] std::uint64_t occupied() const noexcept { return occupied_; }
  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }
  /// Per-port admission limit right now, in bytes. Never 0: a full pool
  /// still reports a 1-byte threshold, because 0 means "infinite" to the
  /// admission check.
  [[nodiscard]] std::uint64_t threshold() const noexcept {
    const std::uint64_t free =
        occupied_ < capacity_ ? capacity_ - occupied_ : 0;
    const auto t = static_cast<std::uint64_t>(
        alpha_ * static_cast<double>(free));
    return t > 0 ? t : 1;
  }

 private:
  std::uint64_t capacity_;
  double alpha_;
  std::uint64_t occupied_ = 0;
};

/// Where a channel hands each packet that reached its far end: a plain
/// function called with the context it was installed with, the shape of
/// sim::PostFn. The packet is the sink's to keep or drop.
using PacketSink = void (*)(void* ctx, detail::Packet&& pkt);

class Channel;

/// The downlink a transfer's packets reach in one switch hop from the
/// host uplink it was given to, or nullptr (another switch).
using OneHopRoute = Channel* (*)(void* ctx, const detail::Transfer& t);

namespace detail {
struct Train;
}

/// A fabric's packet trains (DESIGN.md §5): the open ones, a pool of closed
/// ones to reuse, and the switch-hop counter every train delivery bumps.
/// Owned by the Fabric; host uplinks open trains through it.
class TrainSet {
 public:
  explicit TrainSet(obs::Counter& switch_hops);
  TrainSet(const TrainSet&) = delete;
  TrainSet& operator=(const TrainSet&) = delete;
  ~TrainSet();

  /// Bring every open train's channels and counters up to the current
  /// instant (a metrics snapshot reads them next).
  void settle_all();

 private:
  friend class Channel;
  friend struct detail::Train;
  detail::Train& acquire();
  void close(detail::Train& t);

  obs::Counter* switch_hops_;
  std::vector<std::unique_ptr<detail::Train>> pool_;
  std::vector<detail::Train*> open_;
};

class Channel {
 public:
  Channel(sim::Simulation& sim, const FabricConfig& config, std::string name);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Where fully-serialized packets are delivered (after propagation
  /// delay): `sink(ctx, pkt)`. `ctx` must outlive the channel's deliveries.
  void set_sink(PacketSink sink, void* ctx) noexcept {
    sink_ = sink;
    sink_ctx_ = ctx;
  }

  /// This channel is a host downlink, whose sink is the destination HCA: a
  /// packet of a count-only transfer that is neither its transfer's last nor
  /// ECN-marked is counted into the transfer when it launches, and its
  /// tx-complete posts no delivery (DESIGN.md §5). Set by the owning Hca.
  void mark_final_hop() noexcept { final_hop_ = true; }

  /// This channel is a host uplink that may open packet trains in `trains`
  /// (DESIGN.md §5): `route(ctx, transfer)` names the downlink one switch
  /// hop away. Set by the owning Hca.
  void enable_trains(TrainSet& trains, OneHopRoute route, void* ctx) noexcept {
    trains_ = &trains;
    route_ = route;
    route_ctx_ = ctx;
  }
  /// A train runs on this channel: its packet events are computed, not
  /// queued.
  [[nodiscard]] bool in_train() const noexcept { return train_ != nullptr; }

  /// Queue one packet for transmission. Packets of the same QP stay FIFO;
  /// packets of different QPs are arbitrated round-robin, one MTU per grant.
  void enqueue(detail::Packet&& pkt);

  /// Queue every packet of `transfer` as one run entry (pull segmentation,
  /// host uplinks only: a run skips switch-port admission). Each packet is
  /// cut from the run when it wins arbitration: index i carries
  /// `transfer->packet_bytes(i, mtu)` bytes and PSN `psn + i` (`psn` for
  /// all when `psn_step` is false). Backlog counts, gauges, trace events,
  /// arbitration and the fault hook see exactly what `total_packets`
  /// enqueue() calls in index order would show them, at O(1) cost.
  void enqueue_run(detail::TransferRef transfer, std::uint64_t psn,
                   bool psn_step);

  // --- hardware QoS (Section I: "Newer generation InfiniBand cards allow
  // controls such as setting a limit on bandwidth for different traffic
  // flows and giving priority to certain traffic flows over others") -------

  /// Token-bucket rate limit for one QP's flow, bytes/second (0 = none).
  /// Burst capacity is one MTU plus `burst_bytes`.
  void set_flow_rate_limit(QpNum qp, double bytes_per_sec,
                           std::uint32_t burst_bytes = 0);
  [[nodiscard]] double flow_rate_limit(QpNum qp) const;

  // Readers of state a train advances settle it to the current instant
  // first, so they read what packet mode would show.
  [[nodiscard]] bool busy() const {
    settle();
    return busy_;
  }
  /// Packets queued but not yet on the wire.
  [[nodiscard]] std::uint64_t backlog_packets() const {
    settle();
    return backlog_pkts_;
  }
  [[nodiscard]] std::uint64_t packets_sent() const {
    settle();
    return packets_sent_;
  }
  [[nodiscard]] std::uint64_t bytes_sent() const {
    settle();
    return bytes_sent_;
  }
  /// Cumulative time the transmitter was serializing (utilization numerator).
  [[nodiscard]] sim::SimDuration busy_time() const {
    settle();
    return busy_time_;
  }

  /// Install (or clear, with nullptr) a fault hook consulted once per packet
  /// at transmission time. Normally set fabric-wide via Fabric::set_fault_hook.
  void set_fault_hook(FaultHook* hook) {
    end_train();
    fault_hook_ = hook;
  }
  [[nodiscard]] std::uint64_t packets_dropped() const noexcept {
    return packets_dropped_;
  }
  [[nodiscard]] std::uint64_t packets_corrupted() const noexcept {
    return packets_corrupted_;
  }

  // --- switch congestion (resex::congestion) -------------------------------

  /// Mark this channel as a switch egress port: finite buffering
  /// (config.port_buffer_pkts / port_buffer_bytes, or `pool`'s dynamic
  /// threshold), ECN marking (ecn_kmin/kmax_pkts) and PFC pausing apply
  /// here. Called by the Fabric for host downlinks and trunks — a host
  /// uplink is the sender's own transmit queue and is never a switch port.
  /// `upstreams` names the channels feeding this port's switch — the targets
  /// of PFC pause frames; both pointers must stay valid for the channel's
  /// lifetime (the Fabric owns them). Registers the congestion gauges
  /// lazily, only when congestion is actually configured, so default runs
  /// export exactly the metrics they always did.
  void configure_switch_port(SwitchBufferPool* pool = nullptr,
                             const std::vector<Channel*>* upstreams = nullptr);
  [[nodiscard]] bool switch_port() const noexcept { return switch_port_; }
  /// Packets tail-dropped at enqueue because the port buffer was full.
  [[nodiscard]] std::uint64_t buf_drops() const noexcept { return buf_drops_; }
  /// Packets ECN-marked at this port.
  [[nodiscard]] std::uint64_t ecn_marks() const noexcept { return ecn_marks_; }
  /// Bytes queued but not yet on the wire (byte-mode occupancy).
  [[nodiscard]] std::uint64_t backlog_bytes() const {
    settle();
    return backlog_bytes_;
  }
  [[nodiscard]] const FabricConfig& config() const noexcept { return config_; }

  // --- virtual lanes (resex::qos) and PFC ----------------------------------
  // Every channel runs config.num_vls virtual lanes while
  // config.qos_enabled, otherwise one. Packets ride the lane of their
  // transfer's VL; each lane has its own backlog, buffer share, ECN marker
  // and pause state. With more than one lane the egress runs the two-table
  // VL arbiter before the per-QP round robin; a single lane skips it and is
  // plain per-QP round robin, with pause frames carrying the bitmap 0b1.

  /// Per-priority PFC: a downstream port pauses only the lanes set in
  /// `mask` (bit v = VL v), the class bitmap of an 802.1Qbb/IBA pause
  /// frame. Counted per lane, not boolean — several downstream ports may
  /// pause the same feeder concurrently.
  void pause_vls(std::uint8_t mask);
  void resume_vls(std::uint8_t mask);
  [[nodiscard]] bool vl_paused(std::uint8_t vl) const noexcept {
    return vl < qos::kMaxVls && vl_pause_refs_[vl] > 0;
  }
  /// Some lane of this channel is paused.
  [[nodiscard]] bool paused() const noexcept;
  /// Pause frames this port has sent upstream (XOFF assertions).
  [[nodiscard]] std::uint64_t pauses_sent() const noexcept {
    return pauses_sent_;
  }
  /// Cumulative time lane `vl` spent paused (open interval included).
  [[nodiscard]] sim::SimDuration vl_paused_time(std::uint8_t vl) const noexcept;
  /// Sum of vl_paused_time over the lanes.
  [[nodiscard]] sim::SimDuration paused_time() const noexcept;
  [[nodiscard]] std::uint64_t vl_backlog_packets(std::uint8_t vl) const {
    settle();
    return vl < qos::kMaxVls ? vl_backlog_pkts_[vl] : 0;
  }
  [[nodiscard]] std::uint64_t vl_backlog_bytes(std::uint8_t vl) const {
    settle();
    return vl < qos::kMaxVls ? vl_backlog_bytes_[vl] : 0;
  }
  /// Packet grants the egress awarded to lane `vl`.
  [[nodiscard]] std::uint64_t vl_grants(std::uint8_t vl) const {
    settle();
    return vl < qos::kMaxVls ? vl_grants_[vl] : 0;
  }

 private:
  friend struct detail::Train;

  /// One entry of a flow's queue: a single packet (count 1), or a run of
  /// `count` consecutive packets of one transfer that launch() cuts one at
  /// a time.
  struct Queued {
    detail::Packet next;      // the next packet to send
    std::uint32_t count = 1;  // packets left in the entry
    bool psn_step = false;    // a run: each next packet takes the next PSN
  };

  struct Flow {
    QpNum qp = 0;
    std::uint8_t vl = 0;  // virtual lane (always 0 on a single-lane channel)
    sim::Ring<Queued> packets;
    // Token bucket (rate limiting). Tokens are bytes.
    double rate_bytes_per_sec = 0.0;  // 0 = unlimited
    double tokens = 0.0;
    double bucket_cap = 0.0;
    sim::SimTime tokens_updated = 0;
  };

  Flow& flow_for(QpNum qp, std::uint8_t vl = 0);
  /// Add packets to the backlog counts (and the switch pool) of lane `vl`.
  void account(std::uint8_t vl, std::uint64_t packets, std::uint64_t bytes);
  /// The `pkt.enqueue` instant and backlog counter of one arriving packet.
  void trace_enqueue(QpNum qp, std::uint32_t bytes);
  /// Apply one rate-limit update to one (qp, vl) flow, settling its bucket.
  void apply_rate_limit(Flow& f, double bytes_per_sec,
                        std::uint32_t burst_bytes);
  /// Pick the next packet and put it on the wire, unless busy: lane
  /// arbitration (multi-lane only), then per-QP round robin within the lane.
  void try_start();
  /// Dequeue `f`'s head packet (at flows_[pos]) and put it on the wire,
  /// moving its lane's cursor past it.
  void launch(Flow& f, std::size_t pos);
  /// The packet on the wire finished serializing: free the transmitter,
  /// schedule the packet's delivery unless it was dropped, and arbitrate
  /// the next one.
  void on_tx_done();
  /// The oldest in-flight packet reached the far end: hand it to the sink.
  void deliver();

  // --- packet trains (DESIGN.md §5) ----------------------------------------
  /// The packet just launched from flows_[pos] was cut from the head of a
  /// count-only run that still holds the rest: open a train for that rest
  /// if the flow and its path qualify, and return whether it did (the train
  /// then owns the launch). `prev_end` is the end of the serialization
  /// before this one.
  bool try_open_train(std::size_t pos, sim::SimTime prev_end);
  /// Bring an open train up to the current instant. Const because readers
  /// call it; a Channel is never a const object.
  void settle() const {
    if (train_ != nullptr) const_cast<Channel*>(this)->settle_train();
  }
  void settle_train();
  /// Turn an open train back into packet-mode state and events now.
  void end_train() {
    if (train_ != nullptr) finish_train();
  }
  void finish_train();
  /// Port-wide occupancy in this port's accounting unit (bytes or packets).
  [[nodiscard]] std::uint64_t occupancy_units() const noexcept;
  /// Occupancy of lane `vl` in this port's accounting unit.
  [[nodiscard]] std::uint64_t vl_occupancy_units(std::uint8_t vl) const noexcept;
  /// Per-lane admission capacity in occupancy units (0 = infinite): the
  /// pool's dynamic threshold, or the fixed per-port cap, overridden by a
  /// fault-injected squeeze (denominated in packets, scaled in byte mode).
  /// The Choudhury-Hahne threshold bounds each *queue*, so every lane gets
  /// the full pool bound; a fixed cap (or squeeze) is split statically
  /// across the lanes.
  [[nodiscard]] std::uint64_t vl_capacity_units();
  /// Per-lane XOFF after an admission / XON after a departure.
  void check_xoff(std::uint8_t vl);
  void check_xon(std::uint8_t vl);
  /// Flip this port's pause assertion for one lane and send the class-bitmap
  /// pause frame one hop upstream.
  void set_pause_upstream(std::uint8_t vl, bool pause);
  /// Refill `f`'s bucket to the current time; true if it may send `bytes`.
  bool may_send(Flow& f, std::uint32_t bytes);
  /// Earliest time the rate-limited flow could send its head packet.
  [[nodiscard]] sim::SimTime eligible_at(const Flow& f) const;
  void arm_rate_timer();

  sim::EventHandle rate_timer_;

  sim::Simulation& sim_;
  const FabricConfig& config_;
  std::string name_;
  PacketSink sink_ = nullptr;
  void* sink_ctx_ = nullptr;
  std::uint8_t lanes_;  // virtual lanes, fixed at construction

  std::vector<Flow> flows_;    // stable per-(QP, VL) state, created on first use
  // flows_ position + 1 of flow (qp, vl) at qp * kMaxVls + vl; 0 = none yet.
  // QpNums are allocated densely per fabric, so the table stays small.
  std::vector<std::uint32_t> flow_index_;
  // Flows with a token bucket. While there are none, lane eligibility is
  // read from vl_backlog_pkts_ without touching a flow.
  std::size_t limited_flows_ = 0;
  std::uint64_t backlog_pkts_ = 0;  // packets across all flows' queues
  bool busy_ = false;
  bool tx_delivers_ = false;  // the packet on the wire reaches the sink
  bool final_hop_ = false;    // the sink is the destination HCA
  // Launched packets that will reach the sink, in launch order. Every
  // delivery trails its tx-complete by the same propagation delay, so
  // deliveries fire in launch order and each pops the front.
  sim::Ring<detail::Packet> in_flight_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  sim::SimDuration busy_time_ = 0;
  FaultHook* fault_hook_ = nullptr;
  std::uint64_t packets_dropped_ = 0;
  std::uint64_t packets_corrupted_ = 0;

  // Switch-port congestion state (inert unless configure_switch_port ran
  // with congestion configured — the enqueue fast path only tests a bool).
  bool switch_port_ = false;
  bool ecn_configured_ = false;  // marker thresholds actually installed
  bool byte_mode_ = false;       // occupancy accounted in bytes, not packets
  bool pfc_on_ = false;
  SwitchBufferPool* pool_ = nullptr;
  const std::vector<Channel*>* upstreams_ = nullptr;
  std::uint64_t backlog_bytes_ = 0;
  std::uint64_t buf_drops_ = 0;
  std::uint64_t ecn_marks_ = 0;
  std::uint64_t pauses_sent_ = 0;
  obs::Counter* buf_drops_total_ = nullptr;   // fabric-wide aggregate
  obs::Counter* ecn_marks_total_ = nullptr;   // fabric-wide aggregate
  obs::Counter* pauses_total_ = nullptr;      // fabric-wide aggregate
  obs::Histogram* occupancy_hist_ = nullptr;  // fabric-wide, at enqueue
  obs::Histogram* pause_dur_hist_ = nullptr;  // fabric-wide, per pause spell
  obs::Histogram* vl_occupancy_hist_ = nullptr;  // multi-lane only

  // Per-lane state; lanes at or above lanes_ stay idle.
  qos::VlArbiter arbiter_{};  // configured only when lanes_ > 1
  std::array<std::uint64_t, qos::kMaxVls> vl_backlog_pkts_{};
  std::array<std::uint64_t, qos::kMaxVls> vl_backlog_bytes_{};
  // PFC: pause assertions received (as a feeder) and sent (as a port).
  std::array<std::uint32_t, qos::kMaxVls> vl_pause_refs_{};
  std::array<bool, qos::kMaxVls> vl_xoff_{};  // pausing upstreams for lane v
  std::array<sim::SimTime, qos::kMaxVls> vl_paused_since_{};
  std::array<sim::SimDuration, qos::kMaxVls> vl_paused_time_{};
  std::array<std::size_t, qos::kMaxVls> vl_cursor_{};  // per-lane QP cursor
  std::array<std::uint64_t, qos::kMaxVls> vl_grants_{};
  std::array<EcnMarker, qos::kMaxVls> vl_ecn_{};

  // Packet trains.
  detail::Train* train_ = nullptr;  // open train using this channel
  // End of the last serialization started here (trains derive their
  // predecessors' timing from it).
  sim::SimTime tx_end_ = 0;
  // Host uplinks only.
  TrainSet* trains_ = nullptr;
  OneHopRoute route_ = nullptr;
  void* route_ctx_ = nullptr;
};

}  // namespace resex::fabric
