#pragma once
// Queue pair: the connected endpoint abstraction of the verbs model.

#include <cstdint>
#include <deque>
#include <optional>

#include "fabric/completion_queue.hpp"
#include "fabric/types.hpp"
#include "hv/domain.hpp"

namespace resex::fabric {

class Hca;

enum class QpState : std::uint8_t {
  kReset,
  kReadyToSend,  // connected (the model collapses INIT/RTR/RTS)
  kError,        // retry budget exhausted; new posts flush with error CQEs
};

class QueuePair {
 public:
  QueuePair(QpNum num, Hca& hca, hv::Domain& domain, std::uint32_t pd,
            CompletionQueue& send_cq, CompletionQueue& recv_cq)
      : num_(num), hca_(&hca), domain_(&domain), pd_(pd), send_cq_(&send_cq),
        recv_cq_(&recv_cq) {}

  [[nodiscard]] QpNum num() const noexcept { return num_; }
  [[nodiscard]] Hca& hca() noexcept { return *hca_; }
  [[nodiscard]] hv::Domain& domain() noexcept { return *domain_; }
  [[nodiscard]] std::uint32_t pd() const noexcept { return pd_; }
  [[nodiscard]] CompletionQueue& send_cq() noexcept { return *send_cq_; }
  [[nodiscard]] CompletionQueue& recv_cq() noexcept { return *recv_cq_; }

  [[nodiscard]] QpState state() const noexcept { return state_; }
  [[nodiscard]] QueuePair* peer() noexcept { return peer_; }

  /// Point-to-point connect (performed by Fabric::connect).
  void set_peer(QueuePair& peer) {
    peer_ = &peer;
    state_ = QpState::kReadyToSend;
  }

  /// Transition to the error state (transport/RNR retry budget exhausted).
  /// Outstanding WRs complete with an error status; subsequent posts are
  /// flushed with kWrFlushError instead of touching the wire.
  void set_error() noexcept { state_ = QpState::kError; }

  /// Service level every WR on this QP inherits unless the WR overrides it
  /// (SendWr::sl != kInheritSl). 0 — the latency class — by default, so SL
  /// assignment is opt-in for bulk producers and inert while qos is off.
  [[nodiscard]] std::uint8_t service_level() const noexcept {
    return service_level_;
  }
  void set_service_level(std::uint8_t sl) noexcept {
    service_level_ = static_cast<std::uint8_t>(sl % FabricConfig::kMaxSls);
  }

  /// Next packet sequence number for this QP's send direction (RC transport;
  /// recorded on each packet for trace fidelity and retransmit accounting).
  [[nodiscard]] std::uint64_t advance_psn() noexcept { return send_psn_++; }
  /// Reserve `n` consecutive PSNs at once and return the first.
  [[nodiscard]] std::uint64_t reserve_psns(std::uint32_t n) noexcept {
    const std::uint64_t first = send_psn_;
    send_psn_ += n;
    return first;
  }
  [[nodiscard]] std::uint64_t send_psn() const noexcept { return send_psn_; }

  /// Queue a receive WQE (consumed in FIFO order by incoming messages).
  void post_recv(const RecvWr& wr) { recv_queue_.push_back(wr); }

  /// Consume the oldest receive WQE, if any (HCA side).
  [[nodiscard]] std::optional<RecvWr> consume_recv() {
    if (recv_queue_.empty()) return std::nullopt;
    RecvWr wr = recv_queue_.front();
    recv_queue_.pop_front();
    return wr;
  }

  [[nodiscard]] std::size_t posted_recvs() const noexcept {
    return recv_queue_.size();
  }

  // --- send queue ring + UAR doorbell (guest-memory data path) ---------------

  /// Install the SQ ring (slots of kSqSlotBytes in the owning domain's
  /// memory) and the UAR doorbell record address. Done by Hca::create_qp.
  void set_send_queue(mem::GuestAddr sq_base, std::uint32_t sq_entries,
                      mem::GuestAddr doorbell_addr) {
    sq_base_ = sq_base;
    sq_entries_ = sq_entries;
    doorbell_addr_ = doorbell_addr;
  }

  /// Guest side: serialize `wr` into the next SQ slot and write the
  /// doorbell record. Throws on ring overflow or oversized inline header.
  void write_wqe(const SendWr& wr);

  /// HCA side: how many WQEs the doorbell record announces (a real guest
  /// memory read — the HCA trusts only what is in the ring).
  [[nodiscard]] std::uint64_t doorbell_value() const;

  /// HCA side: fetch and deserialize the WQE at ring position `index`.
  [[nodiscard]] SendWr fetch_wqe(std::uint64_t index);

  [[nodiscard]] std::uint64_t sq_produced() const noexcept {
    return sq_produced_;
  }
  [[nodiscard]] std::uint64_t sq_fetched() const noexcept {
    return sq_fetched_;
  }
  [[nodiscard]] mem::GuestAddr sq_base() const noexcept { return sq_base_; }
  [[nodiscard]] std::uint32_t sq_entries() const noexcept {
    return sq_entries_;
  }

  // --- per-QP traffic counters (hardware view; used by tests) ---------------
  void account_sent(std::uint32_t bytes) noexcept {
    bytes_sent_ += bytes;
    ++msgs_sent_;
  }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return bytes_sent_;
  }
  [[nodiscard]] std::uint64_t msgs_sent() const noexcept { return msgs_sent_; }

 private:
  QpNum num_;
  Hca* hca_;
  hv::Domain* domain_;
  std::uint32_t pd_;
  CompletionQueue* send_cq_;
  CompletionQueue* recv_cq_;
  QpState state_ = QpState::kReset;
  QueuePair* peer_ = nullptr;
  std::uint8_t service_level_ = 0;
  std::uint64_t send_psn_ = 0;
  std::deque<RecvWr> recv_queue_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t msgs_sent_ = 0;
  mem::GuestAddr sq_base_ = 0;
  std::uint32_t sq_entries_ = 0;
  mem::GuestAddr doorbell_addr_ = 0;
  std::uint64_t sq_produced_ = 0;  // guest-side posts
  std::uint64_t sq_fetched_ = 0;   // HCA-side fetches
};

}  // namespace resex::fabric
