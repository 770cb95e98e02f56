#pragma once
// The ResEx controller — the dom0 management loop (Section VI).
//
// Every interval (1 ms) it gathers, for each monitored VM: CPU consumed
// (XenStat), MTUs sent (IBMon's introspection estimate), and the
// interference percentage (latency feedback from the in-VM agent through
// the detector). It hands the observations to the active pricing policy,
// which charges Resos and returns CPU-cap decisions the controller applies
// through the hypervisor. Every epoch (1 s) the ledger replenishes.

#include <memory>
#include <optional>
#include <vector>

#include "benchex/latency_agent.hpp"
#include "core/detector.hpp"
#include "core/policies.hpp"
#include "hv/node.hpp"
#include "ibmon/ibmon.hpp"

namespace resex::core {

struct ControllerConfig {
  ResosConfig resos{};
  SlaConfig sla{};
};

/// One interval's controller state for one VM, for the Figure 5-7 traces.
struct TimelineRecord {
  sim::SimTime at = 0;
  hv::DomainId vm = 0;
  double resos_balance = 0.0;
  double cap = 0.0;
  double charge_rate = 1.0;
  double cpu_pct = 0.0;
  double mtus = 0.0;
  double intf_pct = 0.0;
  double agent_mean_us = 0.0;
};

class ResExController {
 public:
  ResExController(hv::Node& node, ibmon::IbMon& ibmon,
                  std::unique_ptr<PricingPolicy> policy,
                  ControllerConfig config = {});

  /// Track a VM. `agent` may be null (FreeMarket needs no latency feed);
  /// `baseline_mean_us` seeds the SLA baseline (otherwise learned).
  void monitor(hv::Domain& domain, benchex::LatencyAgent* agent,
               double weight = 1.0,
               std::optional<double> baseline_mean_us = {});

  /// Spawn the control loop onto the node's simulation.
  void start();

  [[nodiscard]] const ResosLedger& ledger() const noexcept { return ledger_; }
  [[nodiscard]] PricingPolicy& policy() noexcept { return *policy_; }
  [[nodiscard]] const std::vector<TimelineRecord>& timeline() const noexcept {
    return timeline_;
  }
  [[nodiscard]] std::uint64_t intervals_run() const noexcept {
    return intervals_;
  }
  [[nodiscard]] const InterferenceDetector& detector() const noexcept {
    return detector_;
  }

 private:
  struct Tracked {
    hv::Domain* domain = nullptr;
    benchex::LatencyAgent* agent = nullptr;
    std::uint64_t prev_cpu_ns = 0;
    std::uint64_t prev_mtus = 0;
    /// Last healthy per-interval MTU observation, replayed while IBMon
    /// reports the VM stale (hold-last policy during observation gaps).
    double held_mtus = 0.0;
  };

  [[nodiscard]] sim::Task run();
  void run_interval();

  hv::Node* node_;
  ibmon::IbMon* ibmon_;
  std::unique_ptr<PricingPolicy> policy_;
  hv::XenStat xenstat_;
  ResosLedger ledger_;
  InterferenceDetector detector_;
  std::vector<Tracked> tracked_;
  std::vector<TimelineRecord> timeline_;
  std::uint64_t intervals_ = 0;
  bool started_ = false;
  // Resolved on first use, so each metric registers when it first counts.
  obs::Counter* intervals_metric_ = nullptr;
  obs::Counter* epochs_metric_ = nullptr;
  obs::Counter* cap_adjustments_metric_ = nullptr;
};

}  // namespace resex::core
