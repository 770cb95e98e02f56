#pragma once
// Credit-scheduler model: caps over pinned VCPUs.
//
// Xen's credit scheduler shares a PCPU among its VCPUs in proportion to their
// weights, each bounded above by its cap (percent of one PCPU). Every domain
// here runs at the default weight, so the shares are equal and the cap is the
// whole control surface. We reproduce the steady-state allocation as a
// per-slice window layout: every VCPU pinned to a PCPU gets a contiguous
// window per 10 ms slice whose length is its equal, cap-limited share
// (water-filling). The paper's configuration — one VCPU per PCPU —
// degenerates to a [0, cap% * slice) window, exactly the behaviour its
// Section III describes.
//
// Note on cap conventions: real Xen uses cap == 0 to mean "uncapped"; to keep
// the arithmetic honest we instead use cap == 100 as the uncapped default and
// restrict caps to [min_cap, 100].

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "hv/vcpu.hpp"

namespace resex::hv {

struct SchedulerConfig {
  SimDuration slice = kDefaultSlice;
  double min_cap_pct = 1.0;  // floor so a VM can always make some progress
};

class CreditScheduler {
 public:
  CreditScheduler(sim::Simulation& sim, std::uint32_t pcpu_count,
                  SchedulerConfig config = {});

  [[nodiscard]] std::uint32_t pcpu_count() const noexcept {
    return static_cast<std::uint32_t>(pcpus_.size());
  }
  [[nodiscard]] const SchedulerConfig& config() const noexcept {
    return config_;
  }

  /// Create a schedule for a fresh VCPU before attaching it. The returned
  /// schedule is a full-PCPU window; attach() immediately re-lays it out.
  [[nodiscard]] SliceSchedule initial_schedule() const {
    return SliceSchedule(config_.slice, 0, config_.slice);
  }

  /// Pin `vcpu` to `pcpu` with the given cap.
  void attach(Vcpu& vcpu, std::uint32_t pcpu, double cap_pct = 100.0);

  /// Remove a VCPU from scheduling (domain teardown).
  void detach(Vcpu& vcpu);

  /// Set the cap (percent of a PCPU, clamped to [min_cap, 100]).
  void set_cap(Vcpu& vcpu, double cap_pct);
  [[nodiscard]] double cap(const Vcpu& vcpu) const;

  /// PCPU a VCPU is pinned to.
  [[nodiscard]] std::uint32_t pcpu_of(const Vcpu& vcpu) const;

  /// Number of VCPUs pinned to a PCPU.
  [[nodiscard]] std::size_t load_of(std::uint32_t pcpu) const;

 private:
  struct VcpuState {
    Vcpu* vcpu = nullptr;
    std::uint32_t pcpu = 0;
    double cap_pct = 100.0;
  };

  VcpuState& state_of(const Vcpu& vcpu);
  const VcpuState& state_of(const Vcpu& vcpu) const;
  void relayout(std::uint32_t pcpu);

  sim::Simulation& sim_;
  SchedulerConfig config_;
  std::vector<std::vector<Vcpu*>> pcpus_;  // pinned VCPUs per PCPU, in order
  std::unordered_map<const Vcpu*, VcpuState> states_;
};

}  // namespace resex::hv
