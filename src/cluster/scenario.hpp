#pragma once
// Fig. 2 at cluster scale: N nodes, P = N/4 latency-sensitive services
// co-located with P saturating interferers, P spare nodes, and (optionally)
// the price-driven broker that migrates squeezed servers away.
//
// Placement (P = nodes / 4):
//   hosts   0 .. P-1      reporting server i + interferer server i (the
//                         paper's contended host, replicated P times)
//   spares  P .. 2P-1     empty (dom0 only) — the market's supply side
//   clients N/2+i         reporting client i
//   clients N/2+P+i       interferer client i
//
// The SLA is evaluated client-side, coordinated-omission-free: a sample
// violates when its latency exceeds the calibrated solo-run mean times
// (1 + sla_threshold_pct/100). Static placement leaves every co-located
// service violating for the whole run; with migration enabled the broker
// buys capacity on a spare node and the violations stop at the move.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "benchex/service.hpp"
#include "cluster/migration.hpp"
#include "congestion/config.hpp"
#include "qos/config.hpp"
#include "routing/config.hpp"
#include "cluster/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/observe.hpp"

namespace resex::cluster {

struct ClusterScenarioConfig {
  /// Total nodes; must be a positive multiple of 4 (placement above).
  std::uint32_t nodes = 8;
  /// Fat-tree shape, node PCPUs and trunk bandwidth are ClusterConfig's
  /// defaults.
  TopologyKind topology = TopologyKind::kStar;

  // Workloads: the paper's 64KB reporting VM at this rate (requests/s) and
  // its 2MB interferer at queue depth 2 (core::reporting_config and
  // core::interferer_config at their defaults).
  static constexpr double reporting_rate = 2000.0;
  bool with_interferers = true;

  // Placement policy under test.
  bool migration_enabled = true;
  double sla_threshold_pct = 15.0;
  /// Client-latency SLA limit; measured from a solo calibration run (no
  /// interferers, no migration) when unset.
  std::optional<double> sla_limit_us{};
  /// Server-side baseline mean for the broker's detector; measured with the
  /// SLA limit when unset.
  std::optional<double> baseline_total_us{};

  /// Fault-plan spec (fault::FaultPlan::parse); empty = none.
  std::string faults;

  /// Switch congestion (resex::congestion); defaults off = lossless fabric.
  congestion::CongestionConfig congestion{};

  /// Service levels / virtual lanes (resex::qos); defaults off = one lane.
  qos::QosConfig qos{};

  /// Multipath routing / lane shifts (resex::routing); defaults off =
  /// static single-path forwarding. Applied after qos so vl_shift can
  /// reserve its shift lane above the SL->VL map.
  routing::RoutingConfig routing{};

  sim::SimDuration warmup = 100 * sim::kMillisecond;
  sim::SimDuration duration = sim::kSecond;
  std::uint64_t seed = 1;

  std::string trace_path;
  bool collect_metrics = false;
  sim::SimDuration metrics_period = 0;
};

struct ClusterServiceSummary {
  std::string name;
  std::uint64_t requests = 0;
  double client_mean_us = 0.0;
  double client_p99_us = 0.0;
  double server_total_us = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t violations = 0;
  /// NaN when samples is 0: no sample, no verdict.
  double violation_pct = 0.0;
  std::uint32_t migrations = 0;
  std::uint32_t final_node = 0;
};

struct ClusterScenarioResult {
  std::vector<ClusterServiceSummary> services;     // reporting, index order
  std::vector<ClusterServiceSummary> interferers;  // SLA fields unused
  double sla_limit_us = 0.0;
  double baseline_total_us = 0.0;
  /// Pooled over every reporting sample; NaN when there is none.
  double violation_pct = 0.0;
  MigrationStats migration;
  obs::MetricsSnapshot metrics;
  std::vector<obs::MetricsSnapshot> metrics_series;
  /// Events dispatched and simulated time covered by the measured run (not
  /// the calibration run).
  sim::RunCost cost;
};

[[nodiscard]] ClusterScenarioResult run_cluster_scenario(
    const ClusterScenarioConfig& config);

}  // namespace resex::cluster
