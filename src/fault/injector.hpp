#pragma once
// FaultInjector: executes a FaultPlan against a fabric (and optionally a
// node's dom0 control path). Implements fabric::FaultHook, so installing it
// also switches the fabric into reliable-transport mode — packets the
// injector eats are recovered by retransmission, not lost.
//
// Determinism: probabilistic faults draw from per-channel xoshiro streams
// derived from (seed, FNV-1a(channel name)), so the verdict for the N-th
// packet on a given channel depends only on the plan, the seed and the
// channel's own transmission sequence — never on thread interleaving or
// pointer values. Runs are byte-identical at any `--jobs` count.

#include <cstdint>
#include <unordered_map>

#include "fabric/fault_hook.hpp"
#include "fabric/fabric.hpp"
#include "fault/plan.hpp"
#include "hv/node.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace resex::fault {

class FaultInjector final : public fabric::FaultHook {
 public:
  FaultInjector(FaultPlan plan, std::uint64_t seed)
      : plan_(std::move(plan)), seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Install the plan: hooks every channel of `fabric` (enabling reliable
  /// transport), schedules the scripted HCA stalls, and registers the
  /// control-path delay windows on `control_node` (nullptr = skip them).
  /// The injector must outlive the simulation run.
  void arm(fabric::Fabric& fabric, hv::Node* control_node = nullptr);

  [[nodiscard]] std::uint64_t drops_injected() const noexcept {
    return drops_;
  }
  [[nodiscard]] std::uint64_t corrupts_injected() const noexcept {
    return corrupts_;
  }

  [[nodiscard]] fabric::PacketFate on_transmit(
      const fabric::Channel& channel,
      const fabric::detail::Packet& pkt) override;

  /// Buffer-squeeze windows: the tightest active squeeze matching the
  /// channel, or 0 when none applies.
  [[nodiscard]] std::uint32_t buffer_limit(
      const fabric::Channel& channel) override;

 private:
  [[nodiscard]] bool flap_active(const fabric::Channel& channel,
                                 sim::SimTime now) const;
  [[nodiscard]] sim::Rng& stream_for(const fabric::Channel& channel);

  FaultPlan plan_;
  std::uint64_t seed_;
  sim::Simulation* sim_ = nullptr;
  /// Lazily created per-channel streams; keyed by identity for lookup speed
  /// but *seeded* by channel name, so pointer values never matter.
  std::unordered_map<const fabric::Channel*, sim::Rng> streams_;
  std::uint64_t drops_ = 0;
  std::uint64_t corrupts_ = 0;
};

}  // namespace resex::fault
