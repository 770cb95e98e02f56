#pragma once
// Common types for the InfiniBand fabric model: work requests, wire-format
// completion queue entries, packets, and the fabric configuration.

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/guest_memory.hpp"
#include "routing/config.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace resex::fabric {

/// Fabric-unique queue pair number.
using QpNum = std::uint32_t;

/// Verb opcodes supported by the model.
enum class Opcode : std::uint8_t {
  kRdmaWrite = 1,
  kRdmaWriteWithImm = 2,
  kSend = 3,
  kRdmaRead = 4,
};

/// Completion opcodes as they appear in CQEs.
enum class CqeOpcode : std::uint8_t {
  kSendComplete = 1,   // local completion of any send-side verb
  kRecv = 2,           // incoming SEND consumed a receive WQE
  kRecvRdmaWithImm = 3,  // incoming RDMA-write-with-immediate
  kRdmaReadComplete = 4,
};

/// Completion status codes (subset of ibv_wc_status).
enum class CqeStatus : std::uint8_t {
  kSuccess = 0,
  kLocalProtectionError = 1,  // lkey validation failed
  kRemoteAccessError = 2,     // rkey validation failed at the target
  kRnrRetryExceeded = 3,      // no receive WQE posted at the target
  kLocalLengthError = 4,      // receive buffer too small for incoming data
  kRetryExceeded = 5,         // transport retry budget exhausted (lost acks)
  kWrFlushError = 6,          // WR flushed: QP was in the error state
  kRemoteOperationError = 7,  // message arrived at a QP in the error state
};

[[nodiscard]] const char* to_string(CqeStatus s) noexcept;

/// Completion Queue Entry — the exact 32-byte wire format the HCA DMA-writes
/// into guest memory. IBMon parses these bytes through a foreign mapping, so
/// the layout is part of the "hardware" contract.
struct Cqe {
  std::uint64_t wr_id = 0;
  std::uint32_t qp_num = 0;
  std::uint32_t byte_len = 0;
  std::uint32_t imm_data = 0;
  std::uint8_t opcode = 0;   // CqeOpcode
  std::uint8_t status = 0;   // CqeStatus
  std::uint8_t owner = 0;    // validity: toggles with each ring lap
  std::uint8_t reserved = 0;
  std::uint64_t timestamp_ns = 0;  // HCA completion timestamp
};
static_assert(sizeof(Cqe) == 32, "CQE wire format must be 32 bytes");
static_assert(std::is_trivially_copyable_v<Cqe>);

/// Send-queue WQE wire format: the 64-byte base segment the guest writes
/// into its SQ ring in guest memory and the HCA fetches after a doorbell.
/// Message headers travel as an inline-data segment right after the base
/// (up to kMaxInlineBytes), so posted requests genuinely round-trip through
/// guest pages.
struct Wqe {
  std::uint64_t wr_id = 0;
  std::uint64_t local_addr = 0;
  std::uint64_t remote_addr = 0;
  std::uint32_t length = 0;
  std::uint32_t lkey = 0;
  std::uint32_t rkey = 0;
  std::uint32_t imm_data = 0;
  std::uint8_t opcode = 0;
  std::uint8_t flags = 0;  // bit 0: signaled
  std::uint16_t inline_len = 0;
  std::uint8_t sl = 0;  // service level (0xFF = inherit the QP's SL)
  std::uint8_t reserved8 = 0;
  std::uint16_t reserved16 = 0;
  std::uint64_t pad[2] = {0, 0};

  static constexpr std::uint8_t kFlagSignaled = 1;
};
static_assert(sizeof(Wqe) == 64, "WQE base segment must be 64 bytes");
static_assert(std::is_trivially_copyable_v<Wqe>);

/// SQ ring slot: 64-byte base segment + inline data area.
inline constexpr std::size_t kSqSlotBytes = 256;
inline constexpr std::size_t kMaxInlineBytes = kSqSlotBytes - sizeof(Wqe);

/// Sentinel service level on a SendWr: use the posting QP's SL.
inline constexpr std::uint8_t kInheritSl = 0xFF;

/// A send-side work request, as passed to post_send.
struct SendWr {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::kRdmaWrite;
  mem::GuestAddr local_addr = 0;
  std::uint32_t lkey = 0;
  std::uint32_t length = 0;
  mem::GuestAddr remote_addr = 0;
  std::uint32_t rkey = 0;
  std::uint32_t imm_data = 0;
  bool signaled = true;
  /// Service level (resex::qos). kInheritSl (the default) uses the posting
  /// QP's SL; an explicit value overrides it per-WR. Ignored while qos is
  /// off — every packet then travels VL 0 exactly as before.
  std::uint8_t sl = kInheritSl;
  /// Optional leading payload bytes that are really DMA-written at the
  /// destination (message headers). The remaining `length - header.size()`
  /// bytes are accounted for in timing and CQE byte_len but not copied —
  /// bulk payload content is irrelevant to the experiments while headers
  /// must round-trip exactly.
  std::vector<std::byte> header;
};

/// A receive-side work request.
struct RecvWr {
  std::uint64_t wr_id = 0;
  mem::GuestAddr addr = 0;
  std::uint32_t lkey = 0;
  std::uint32_t length = 0;
};

/// Fabric timing/geometry parameters. Defaults model the paper's testbed:
/// Mellanox MT25208 HCAs on an 8 Gb/s effective (10 Gb/s signalled, 8b/10b)
/// link through a Xsigo VP780 switch, 1 KiB MTU.
struct FabricConfig {
  std::uint32_t mtu_bytes = 1024;
  /// Effective data bandwidth per link direction, bytes per second.
  double link_bytes_per_sec = 1024.0 * 1024.0 * 1024.0;  // 1 GiB/s
  sim::SimDuration propagation_delay = 200;     // cable + switch hop, ns
  sim::SimDuration doorbell_latency = 150;      // UAR write -> HCA pickup
  sim::SimDuration wqe_processing = 250;        // HCA WQE fetch/parse
  sim::SimDuration ack_delay = 500;             // last packet -> ACK at sender
  sim::SimDuration completion_dma = 100;        // CQE DMA write cost
  /// Receiver-not-ready handling (RC semantics): when a message needs a
  /// receive WQE and none is posted, the target NAKs and the sender retries
  /// after this delay, up to the retry limit. kInfiniteRnrRetry (IB's
  /// retry_count=7 convention) retries forever.
  sim::SimDuration rnr_retry_delay = 100 * sim::kMicrosecond;
  static constexpr std::uint32_t kInfiniteRnrRetry = ~std::uint32_t{0};
  std::uint32_t rnr_retry_limit = kInfiniteRnrRetry;
  /// Reliable-transport (RC) retransmission. Only active when a fault hook
  /// is installed on the fabric — the perfect-link fast path stays intact
  /// otherwise. The effective initial RTO for a transfer is
  /// `retransmit_timeout + 8 * serialization_time(wire_length)` so queueing
  /// behind large neighbours does not trigger spurious retransmits; it then
  /// doubles per retry (exponential backoff). 1 ms is ~5x the interfered
  /// round trip and well above the worst-case WRR queueing delay observed
  /// under a saturating 2MB neighbour (a few hundred us).
  sim::SimDuration retransmit_timeout = sim::kMillisecond;
  /// Transport retries before the QP transitions to the error state and the
  /// WR completes with kRetryExceeded (IB's transport retry_cnt analogue).
  std::uint32_t transport_retry_limit = 7;
  /// CPU cost for the guest to notice/parse one CQE when polling.
  sim::SimDuration poll_check_cost = 200;
  /// CPU cost to build + post one WQE (doorbell write included).
  sim::SimDuration post_cost = 300;

  // --- switch congestion (resex::congestion) -------------------------------
  /// Egress buffer capacity of each switch port, in packets. Applies to the
  /// channels the switch transmits on (host downlinks and trunks); a host
  /// uplink is the sender HCA's own transmit queue and never drops. 0 keeps
  /// the historical infinite-buffer lossless model, byte-identical to builds
  /// without the congestion subsystem.
  std::uint32_t port_buffer_pkts = 0;
  /// ECN marking thresholds on switch-port egress occupancy, RED-style:
  /// below kmin no packet is marked, at or above kmax every packet is, in
  /// between the marking probability ramps linearly (realized with a
  /// deterministic fractional accumulator, not an RNG, so runs stay
  /// byte-identical at any --jobs). kmax = 0 disables marking; otherwise
  /// 1 <= kmin <= kmax is required.
  std::uint32_t ecn_kmin_pkts = 0;
  std::uint32_t ecn_kmax_pkts = 0;

  // --- lossless mode / shared buffering (resex::congestion, PFC) -----------
  /// Per-port egress buffer capacity in *bytes* (0 = use port_buffer_pkts).
  /// Setting it switches the port to byte-based occupancy accounting; the
  /// packet-denominated ECN thresholds and squeeze faults are scaled by the
  /// MTU so they keep their meaning under either accounting.
  std::uint64_t port_buffer_bytes = 0;
  /// Shared per-switch buffer pool in bytes (0 = per-port buffers only).
  /// When set, each port's admission limit is the dynamic threshold
  /// `pool_alpha * (free pool bytes)` — Choudhury-Hahne dynamic thresholds —
  /// *replacing* any fixed per-port cap; occupancy accounting is in bytes.
  std::uint64_t switch_pool_bytes = 0;
  /// Dynamic-threshold scale factor for the shared pool.
  double pool_alpha = 1.0;
  /// PFC-style lossless mode: when a switch port's egress occupancy crosses
  /// pfc_xoff * capacity, it sends pause frames one hop upstream (to every
  /// channel feeding its switch, arriving after the propagation delay) that
  /// gate the upstream ports' arbitration; at pfc_xon * capacity it resumes
  /// them. Requires finite buffering (lossy() must hold).
  bool pfc_enabled = false;
  double pfc_xoff = 0.60;
  double pfc_xon = 0.30;

  // --- service levels / virtual lanes (resex::qos) --------------------------
  static constexpr std::uint32_t kMaxVls = 4;
  static constexpr std::uint32_t kMaxSls = 16;
  /// Per-priority queuing: WQEs/QPs carry a service level, the SL->VL map
  /// assigns each packet to a virtual lane, and every channel schedules its
  /// lanes through a two-table (high/low priority) weighted arbiter. Switch
  /// ports then split their buffer, ECN marker and PFC pause state per VL —
  /// pause frames carry a class bitmap and only gate the paused lanes
  /// upstream. Off (the default), every channel runs one lane with no VL
  /// arbiter. Normally configured via qos::QosConfig::apply.
  bool qos_enabled = false;
  std::uint8_t num_vls = 1;
  std::uint8_t sl2vl[kMaxSls] = {};
  /// WRR weight per VL within its arbitration table.
  std::uint32_t vl_weight[kMaxVls] = {1, 1, 1, 1};
  /// Bit v: VL v is a member of the high-priority arbitration table.
  std::uint8_t vl_high_mask = 0;
  /// High-table grants allowed while low-table traffic waits before one
  /// low-table grant is forced (0 = strict priority).
  std::uint32_t vl_hi_limit = 0;

  // --- multipath forwarding (resex::routing) --------------------------------
  /// Route selection among equal-cost candidates and deadlock-free lane
  /// shifts. Defaults to static single-path forwarding, byte-identical to
  /// builds without the routing subsystem.
  routing::RoutingConfig routing{};

  /// Reserve one virtual lane as lane-shift headroom for vl_shift routing:
  /// grow num_vls by one (within kMaxVls) *after* the qos config has applied
  /// its SL->VL map, so no service level maps onto the shift lane and
  /// shifted traffic never shares a lane with unshifted traffic of another
  /// class. No-op while qos is off (Fabric rejects vl_shift without qos).
  void reserve_shift_lane() noexcept {
    if (qos_enabled && num_vls < kMaxVls) ++num_vls;
  }

  /// The VL a packet of service level `sl` travels on. VL 0 while qos is
  /// off; out-of-range map entries clamp to the highest configured VL.
  [[nodiscard]] std::uint8_t vl_for_sl(std::uint8_t sl) const noexcept {
    if (!qos_enabled) return 0;
    const std::uint8_t vl = sl2vl[sl % kMaxSls];
    return vl < num_vls ? vl : static_cast<std::uint8_t>(num_vls - 1);
  }

  /// True iff switch-port occupancy is accounted in bytes (a byte cap or a
  /// shared pool is configured) rather than packets.
  [[nodiscard]] bool byte_occupancy() const noexcept {
    return port_buffer_bytes > 0 || switch_pool_bytes > 0;
  }
  /// True iff switch buffers are finite (packets can be tail-dropped).
  [[nodiscard]] bool lossy() const noexcept {
    return port_buffer_pkts > 0 || byte_occupancy();
  }
  /// True iff any congestion mechanism (drop, mark or pause) is configured.
  [[nodiscard]] bool congestion_enabled() const noexcept {
    return lossy() || ecn_kmax_pkts > 0;
  }

  [[nodiscard]] double ns_per_byte() const noexcept {
    return 1e9 / link_bytes_per_sec;
  }
  [[nodiscard]] sim::SimDuration serialization_time(
      std::uint32_t bytes) const noexcept {
    return static_cast<sim::SimDuration>(static_cast<double>(bytes) *
                                         ns_per_byte());
  }
  /// Number of MTU packets a message of `bytes` occupies (minimum 1).
  [[nodiscard]] std::uint32_t packets_for(std::uint32_t bytes) const noexcept {
    if (bytes == 0) return 1;
    return (bytes + mtu_bytes - 1) / mtu_bytes;
  }
};

class QueuePair;

namespace detail {
/// An in-flight message (one WQE's worth of data) being segmented into
/// packets and reassembled at the destination.
struct Transfer {
  SendWr wr;
  QueuePair* src_qp = nullptr;
  QueuePair* dst_qp = nullptr;
  /// Bytes on the wire: equals wr.length for data-carrying ops, but a small
  /// constant for RDMA-read *requests* (the data flows in the response).
  std::uint32_t wire_length = 0;
  std::uint32_t total_packets = 0;
  std::uint32_t delivered_packets = 0;
  /// True for the data-bearing half of an RDMA read (target -> requester).
  bool read_response = false;
  /// Effective service level (WR override or the source QP's SL) and the
  /// virtual lane the SL->VL map assigned. Every packet of the transfer —
  /// first transmission and retransmits alike — travels this VL; both stay
  /// 0 while qos is off.
  std::uint8_t sl = 0;
  std::uint8_t vl = 0;
  /// RNR retries already spent at the target.
  std::uint32_t rnr_retries_used = 0;
  /// Sim time the first packet was enqueued (wire-latency span start).
  sim::SimTime started_at = 0;

  // --- reliable-transport state (used only when the fabric has a fault
  // hook installed; empty/idle otherwise so the fast path is unchanged) ---
  /// Per-packet arrival bitmap; duplicates from retransmission are ignored.
  std::vector<bool> received;
  /// Set once the message fully arrived (or the QP errored out); late
  /// retransmitted packets for a completed transfer are dropped.
  bool completed = false;
  /// Transport (ack-timeout) retries already spent at the sender.
  std::uint32_t transport_retries_used = 0;
  /// Current retransmission timeout (doubles per retry).
  sim::SimDuration rto = 0;
  /// Pending ack-timeout event; cancelled on full delivery.
  sim::EventHandle retx_timer;
  /// Receiver-side sequence tracking for NAK fast-retransmit: the number of
  /// contiguous packets received from index 0, and the highest index seen.
  /// A received index above the contiguous prefix proves a hole (per-transfer
  /// packet order is FIFO on the wire), so the receiver NAKs immediately
  /// instead of letting the sender wait out the ack timeout.
  std::uint32_t rcv_contig = 0;
  std::uint32_t max_rcv_index = 0;
  /// A NAK is outstanding: no further NAK until the contiguous prefix
  /// passes nak_floor (the high-water mark when it was sent) — otherwise
  /// every arrival behind one hole would re-request the same packets while
  /// the first resend is still in flight.
  bool nak_pending = false;
  std::uint32_t nak_floor = 0;
};

/// One MTU on the wire.
struct Packet {
  std::shared_ptr<Transfer> transfer;
  std::uint32_t index = 0;  // 0-based packet number within the transfer
  std::uint32_t bytes = 0;
  /// Packet sequence number (per send QP), for trace fidelity.
  std::uint64_t psn = 0;
  /// Payload damaged in flight; the receiver discards it silently and the
  /// sender's retransmit timer recovers it (a corrupt is a late drop).
  bool corrupted = false;
  /// ECN Congestion Experienced: set by a congested switch port and carried
  /// in the header through every remaining store-and-forward hop (never
  /// cleared), so the destination HCA sees congestion anywhere on the path.
  bool ecn = false;
  [[nodiscard]] bool last() const noexcept {
    return index + 1 == transfer->total_packets;
  }
};
}  // namespace detail

}  // namespace resex::fabric
