#include "cluster/scenario.hpp"

#include <memory>
#include <stdexcept>

#include "congestion/dcqcn.hpp"
#include "core/testbed.hpp"
#include "fault/fault.hpp"
#include "sim/observe.hpp"
#include "sim/rng.hpp"

namespace resex::cluster {

namespace {

struct Calibration {
  double client_mean_us = 0.0;
  double server_total_us = 0.0;
};

/// Solo run on the same topology (hop counts must match the real runs):
/// no interferers, no migration, short, fault-free, trace/metrics off.
Calibration calibrate(ClusterScenarioConfig config) {
  config.with_interferers = false;
  config.migration_enabled = false;
  config.duration = 300 * sim::kMillisecond;
  config.trace_path.clear();
  config.collect_metrics = false;
  config.metrics_period = 0;
  config.faults.clear();
  // Non-nullopt sentinels stop the nested run from calibrating again.
  config.sla_limit_us = 0.0;
  config.baseline_total_us = 0.0;
  const auto r = run_cluster_scenario(config);
  return {r.services.at(0).client_mean_us, r.services.at(0).server_total_us};
}

ClusterServiceSummary summarize(benchex::Service& svc, double sla_limit_us) {
  ClusterServiceSummary s;
  s.name = svc.name();
  s.requests = svc.server_metrics().requests;
  const auto& lat = svc.client_metrics().latency_us;
  s.client_mean_us = lat.mean();
  s.client_p99_us = lat.percentile(99.0);
  s.server_total_us = svc.server_metrics().total_us.mean();
  s.samples = lat.count();
  if (sla_limit_us > 0.0) {
    for (const double v : lat.values()) {
      if (v > sla_limit_us) ++s.violations;
    }
  }
  s.violation_pct = s.samples == 0 ? 0.0
                                   : 100.0 * static_cast<double>(s.violations) /
                                         static_cast<double>(s.samples);
  s.migrations = svc.migrations();
  s.final_node = svc.server_node_id();
  return s;
}

}  // namespace

ClusterScenarioResult run_cluster_scenario(
    const ClusterScenarioConfig& config) {
  if (config.nodes == 0 || config.nodes % 4 != 0) {
    throw std::invalid_argument(
        "run_cluster_scenario: nodes must be a positive multiple of 4");
  }
  const std::uint32_t pairs = config.nodes / 4;

  ClusterScenarioResult result;
  if (config.sla_limit_us.has_value() && config.baseline_total_us.has_value()) {
    result.sla_limit_us = *config.sla_limit_us;
    result.baseline_total_us = *config.baseline_total_us;
  } else {
    const Calibration base = calibrate(config);
    result.sla_limit_us =
        base.client_mean_us * (1.0 + config.sla_threshold_pct / 100.0);
    result.baseline_total_us = base.server_total_us;
  }

  ClusterConfig ccfg;
  ccfg.nodes = config.nodes;
  ccfg.pcpus_per_node = config.pcpus_per_node;
  ccfg.topology = config.topology;
  ccfg.leaf_width = config.leaf_width;
  ccfg.spines = config.spines;
  ccfg.trunk_bandwidth_scale = config.trunk_bandwidth_scale;
  config.congestion.apply(ccfg.fabric);
  config.qos.apply(ccfg.fabric);
  // Routing rides after qos: reserve_shift_lane grows num_vls *above* the
  // applied SL->VL map, so no service level maps onto the shift lane.
  ccfg.fabric.routing = config.routing;
  if (config.routing.vl_shift) ccfg.fabric.reserve_shift_lane();
  Cluster cluster(ccfg);
  sim::Observer observer(
      cluster.sim(),
      {config.trace_path, config.collect_metrics, config.metrics_period},
      result.metrics, result.metrics_series);

  // --- DCQCN rate control (resex::congestion), if enabled --------------------
  std::unique_ptr<congestion::RateController> rate_controller;
  if (config.congestion.rate_control && config.congestion.ecn_kmax > 0) {
    rate_controller = std::make_unique<congestion::RateController>(
        cluster.fabric(), config.congestion.dcqcn);
  }

  // --- fault injection -------------------------------------------------------
  const fault::FaultPlan fault_plan = fault::FaultPlan::parse(config.faults);
  std::unique_ptr<fault::FaultInjector> injector;
  if (fault_plan.any()) {
    injector = std::make_unique<fault::FaultInjector>(
        fault_plan, sim::derive(config.seed, 0xFA17));
    // Control-path delay windows land on the first contended host's dom0.
    injector->arm(cluster.fabric(), &cluster.node(0));
    cluster.sim().metrics().gauge_fn(
        "fault.drops_injected", [inj = injector.get()] {
          return static_cast<double>(inj->drops_injected());
        });
    cluster.sim().metrics().gauge_fn(
        "fault.corrupts_injected", [inj = injector.get()] {
          return static_cast<double>(inj->corrupts_injected());
        });
  }

  // --- deploy ---------------------------------------------------------------
  std::vector<std::unique_ptr<benchex::Service>> services;
  std::vector<std::unique_ptr<benchex::Service>> interferers;
  for (std::uint32_t i = 0; i < pairs; ++i) {
    auto cfg = core::reporting_config(config.reporting_buffer,
                                      config.reporting_rate,
                                      sim::derive(config.seed, i));
    cfg.metrics_start = config.warmup;
    services.push_back(std::make_unique<benchex::Service>(
        cluster.hca(i), cluster.hca(config.nodes / 2 + i), cfg,
        "rep" + std::to_string(i), /*with_agent=*/true));
  }
  if (config.with_interferers) {
    for (std::uint32_t i = 0; i < pairs; ++i) {
      // Stream ids 100.. keep interferer draws clear of reporting ids 0...
      auto cfg = core::interferer_config(config.intf_buffer, config.intf_depth,
                                         sim::derive(config.seed, 100 + i));
      cfg.metrics_start = config.warmup;
      interferers.push_back(std::make_unique<benchex::Service>(
          cluster.hca(i), cluster.hca(config.nodes / 2 + pairs + i), cfg,
          "intf" + std::to_string(i), /*with_agent=*/false));
    }
  }

  // --- the market ------------------------------------------------------------
  core::ClusterExchange exchange;
  std::unique_ptr<MigrationEngine> engine;
  std::unique_ptr<ClusterBroker> broker;
  if (config.migration_enabled) {
    engine = std::make_unique<MigrationEngine>(cluster, config.migration);
    BrokerConfig bcfg = config.broker;
    bcfg.sla_threshold_pct = config.sla_threshold_pct;
    broker =
        std::make_unique<ClusterBroker>(cluster, exchange, *engine, bcfg);
    for (auto& svc : services) {
      broker->manage(*svc, result.baseline_total_us);
    }
    broker->start();
  }

  for (auto& svc : services) svc->start();
  for (auto& svc : interferers) svc->start();

  // --- run -------------------------------------------------------------------
  observer.start();
  cluster.sim().run_until(config.warmup + config.duration);

  // --- collect ---------------------------------------------------------------
  std::uint64_t pooled_samples = 0;
  std::uint64_t pooled_violations = 0;
  for (auto& svc : services) {
    result.services.push_back(summarize(*svc, result.sla_limit_us));
    pooled_samples += result.services.back().samples;
    pooled_violations += result.services.back().violations;
  }
  for (auto& svc : interferers) {
    result.interferers.push_back(summarize(*svc, 0.0));
  }
  result.violation_pct =
      pooled_samples == 0 ? 0.0
                          : 100.0 * static_cast<double>(pooled_violations) /
                                static_cast<double>(pooled_samples);
  if (engine != nullptr) result.migration = engine->stats();
  if (cluster.sim().tracer().enabled()) {
    cluster.sim().tracer().complete(
        "cluster.scenario", "cluster", 0, cluster.sim().now(),
        {"seed", static_cast<double>(config.seed)},
        {"nodes", static_cast<double>(config.nodes)});
  }
  observer.finish();
  return result;
}

}  // namespace resex::cluster
