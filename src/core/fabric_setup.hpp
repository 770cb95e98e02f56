#pragma once
// The one path from a run's fabric settings to a running fabric, shared by
// core::run_scenario, cluster::run_cluster_scenario and the bench worlds
// (DESIGN.md §13). Every setting defaults off: a default config leaves
// FabricConfig{} untouched and builds no control.

#include <cstdint>
#include <memory>
#include <utility>

#include "congestion/dcqcn.hpp"
#include "fault/injector.hpp"
#include "sim/rng.hpp"

namespace resex::core {

/// Write `config`'s `congestion`, then `qos`, then (when it has one)
/// `routing` settings into `fabric`; vl_shift then reserves its lane *above*
/// the applied SL->VL map, so no service level maps onto it.
template <typename Config>
void apply_fabric(const Config& config, fabric::FabricConfig& fabric) {
  config.congestion.apply(fabric);
  config.qos.apply(fabric);
  if constexpr (requires { config.routing; }) {
    fabric.routing = config.routing;
    if (config.routing.vl_shift) fabric.reserve_shift_lane();
  }
}

/// The rate controller and fault injector of one run. Build it right after
/// the world's Observer; it must outlive the run.
class FabricControls {
 public:
  /// A DCQCN controller only when rate control has ECN marks to react to; a
  /// fault injector only when `plan` injects something, drawing from stream
  /// 0xFA17 of `seed` (clear of every workload stream), its control-path
  /// windows on `control_node`'s dom0 (nullptr = none).
  FabricControls(fabric::Fabric& fabric,
                 const congestion::CongestionConfig& congestion,
                 fault::FaultPlan plan, std::uint64_t seed,
                 hv::Node* control_node) {
    if (congestion.rate_control && congestion.ecn_kmax > 0) {
      rate_controller_ = std::make_unique<congestion::RateController>(
          fabric, congestion.dcqcn);
    }
    if (plan.any()) {
      injector_ = std::make_unique<fault::FaultInjector>(
          std::move(plan), sim::derive(seed, 0xFA17));
      injector_->arm(fabric, control_node);
    }
  }

  [[nodiscard]] bool faults_on() const noexcept { return injector_ != nullptr; }
  [[nodiscard]] congestion::RateController* rate_controller() const noexcept {
    return rate_controller_.get();
  }

 private:
  std::unique_ptr<congestion::RateController> rate_controller_;
  std::unique_ptr<fault::FaultInjector> injector_;
};

}  // namespace resex::core
