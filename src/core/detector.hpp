#pragma once
// Interference detection from in-VM latency feedback (Section V-A / VI-C).
//
// ResEx defines interference as a positive change in perceived I/O latency.
// The detector compares each VM's reported latency window (mean and stddev)
// against an SLA baseline — either configured (the operator knows the VM's
// entitled latency) or learned from the first intervals of the run — and
// yields the percentage increase ("IntfPercent") when it exceeds the SLA
// threshold.

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "benchex/latency_agent.hpp"
#include "hv/domain.hpp"

namespace resex::core {

struct SlaConfig {
  /// Percentage increase over baseline that counts as an SLA violation.
  double threshold_pct = 15.0;
  /// Intervals used to learn a baseline when none is configured.
  std::uint32_t learn_intervals = 100;
  /// Cap on the reported interference percentage (keeps the congestion
  /// price finite when the baseline is tiny).
  static constexpr double max_intf_pct = 400.0;
};

class InterferenceDetector {
 public:
  explicit InterferenceDetector(SlaConfig config = {}) : config_(config) {}

  /// Register a VM; pass its entitled baseline latency if known (the
  /// Section VII experiments configure the measured base-case latency).
  /// Without a baseline the first `learn_intervals` observations are
  /// averaged into one.
  void add_vm(hv::DomainId id, std::optional<double> baseline_mean_us = {});

  /// Feed one interval's agent snapshot; returns IntfPercent: the percent
  /// increase of the window mean over baseline, 0 while within SLA (or
  /// while still learning).
  double observe(hv::DomainId id, const benchex::LatencyAgent::Snapshot& s);

  [[nodiscard]] double baseline(hv::DomainId id) const;
  [[nodiscard]] bool has_baseline(hv::DomainId id) const;
  [[nodiscard]] const SlaConfig& config() const noexcept { return config_; }

 private:
  struct VmState {
    std::optional<double> baseline_mean_us;
    double learn_sum = 0.0;
    std::uint32_t learn_count = 0;
    std::uint64_t last_reports = 0;
  };

  SlaConfig config_;
  std::unordered_map<hv::DomainId, VmState> vms_;
};

}  // namespace resex::core
