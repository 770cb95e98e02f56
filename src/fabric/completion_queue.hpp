#pragma once
// Completion queue backed by a ring of CQEs in guest memory.
//
// The HCA (producer) DMA-writes 32-byte CQEs into the guest pages backing
// the ring; the guest application (consumer) polls them out. Validity uses
// the owner-bit convention of real ConnectX hardware: the expected owner bit
// alternates each lap around the ring, so neither side needs a shared index.
// Because the CQEs are real bytes in guest memory, dom0's IBMon can map the
// ring and track completions out-of-band — the paper's central monitoring
// mechanism.

#include <coroutine>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "fabric/types.hpp"
#include "hv/vcpu.hpp"
#include "mem/guest_memory.hpp"
#include "sim/simulation.hpp"

namespace resex::fabric {

class CompletionQueue {
 public:
  /// The ring occupies ceil(entries*32 / page) pages starting at `base`
  /// (page-aligned), inside `memory`.
  CompletionQueue(sim::Simulation& sim, mem::GuestMemory& memory,
                  mem::GuestAddr base, std::uint32_t entries,
                  std::uint32_t cq_id);

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] mem::GuestAddr ring_base() const noexcept { return base_; }
  [[nodiscard]] std::uint32_t entries() const noexcept { return entries_; }
  [[nodiscard]] std::size_t ring_bytes() const noexcept {
    return static_cast<std::size_t>(entries_) * sizeof(Cqe);
  }

  // --- producer side (HCA only) ---------------------------------------------

  /// DMA a completion into the ring. Throws on CQ overrun (the guest sized
  /// its ring too small — a programming error in the workload setup).
  void produce(Cqe cqe);

  /// Total CQEs ever produced (hardware counter; not visible to the guest).
  [[nodiscard]] std::uint64_t produced() const noexcept { return produced_; }

  // --- consumer side (guest application) -------------------------------------

  /// Non-destructive check for an available CQE.
  [[nodiscard]] bool has_entry() const;

  /// Pop the next CQE if available. Pure memory operation; callers charge
  /// their VCPU for the poll (Verbs::next_cqe).
  [[nodiscard]] std::optional<Cqe> poll();

  /// Number of CQEs consumed by the guest so far.
  [[nodiscard]] std::uint64_t consumed() const noexcept { return consumed_; }

  /// Awaitable that resumes once at least one CQE is available *and* the
  /// polling VCPU is scheduled (a descheduled VM cannot observe completions
  /// — this is where CPU caps throttle I/O observation latency).
  struct WaitAwaiter {
    CompletionQueue& cq;
    hv::Vcpu& vcpu;
    bool await_ready() const { return cq.has_entry(); }
    void await_suspend(std::coroutine_handle<> h) {
      cq.waiters_.push_back({h, &vcpu});
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] WaitAwaiter wait(hv::Vcpu& vcpu) {
    return WaitAwaiter{*this, vcpu};
  }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    hv::Vcpu* vcpu;
  };

  [[nodiscard]] mem::GuestAddr slot_addr(std::uint64_t count) const noexcept {
    return base_ + (count % entries_) * sizeof(Cqe);
  }
  /// Owner bit that marks a slot valid for the lap containing `count`.
  [[nodiscard]] std::uint8_t owner_for(std::uint64_t count) const noexcept {
    return static_cast<std::uint8_t>((count / entries_) % 2 == 0 ? 1 : 0);
  }
  void wake_waiters();

  sim::Simulation& sim_;
  mem::GuestMemory& memory_;
  mem::GuestAddr base_;
  std::uint32_t entries_;
  std::uint32_t id_;
  std::uint64_t produced_ = 0;
  std::uint64_t consumed_ = 0;
  std::vector<Waiter> waiters_;
};

}  // namespace resex::fabric
