#include "core/experiment.hpp"

#include <memory>

#include "congestion/dcqcn.hpp"
#include "fault/fault.hpp"
#include "sim/observe.hpp"
#include "sim/rng.hpp"

namespace resex::core {

const char* to_string(PolicyKind k) noexcept {
  switch (k) {
    case PolicyKind::kNone: return "none";
    case PolicyKind::kFreeMarket: return "FreeMarket";
    case PolicyKind::kIOShares: return "IOShares";
    case PolicyKind::kStaticReservation: return "StaticReservation";
  }
  return "unknown";
}

namespace {

VmSummary summarize(const std::string& name, benchex::Service& pair) {
  VmSummary s;
  s.name = name;
  const auto& sm = pair.server_metrics();
  const auto& cm = pair.client_metrics();
  s.requests = sm.requests;
  s.client_mean_us = cm.latency_us.mean();
  s.client_stddev_us = cm.latency_us.stddev();
  s.client_p99_us = cm.latency_us.percentile(99.0);
  s.ptime_us = sm.ptime_us.mean();
  s.ctime_us = sm.ctime_us.mean();
  s.wtime_us = sm.wtime_us.mean();
  s.ptime_sd_us = sm.ptime_us.stddev();
  s.ctime_sd_us = sm.ctime_us.stddev();
  s.wtime_sd_us = sm.wtime_us.stddev();
  s.total_us = sm.total_us.mean();
  s.client_latency_us = cm.latency_us;
  return s;
}

std::unique_ptr<PricingPolicy> make_policy(const ScenarioConfig& cfg,
                                           hv::DomainId interferer_id) {
  switch (cfg.policy) {
    case PolicyKind::kNone:
      return nullptr;
    case PolicyKind::kFreeMarket:
      return std::make_unique<FreeMarketPolicy>();
    case PolicyKind::kIOShares:
      return std::make_unique<IOSharesPolicy>();
    case PolicyKind::kStaticReservation:
      return std::make_unique<StaticReservationPolicy>(
          std::unordered_map<hv::DomainId, double>{
              {interferer_id, cfg.static_cap_pct}});
  }
  return nullptr;
}

}  // namespace

double measure_base_total_us(ScenarioConfig config) {
  config.with_interferer = false;
  config.policy = PolicyKind::kNone;
  config.duration = 300 * sim::kMillisecond;
  // The baseline probe runs nested inside run_scenario: it must not write
  // over the outer trial's trace file or pollute its metrics snapshot. It
  // also runs fault-free — the SLA baseline is the healthy-fabric latency.
  config.trace_path.clear();
  config.collect_metrics = false;
  config.metrics_period = 0;
  config.faults.clear();
  const auto result = run_scenario(config);
  return result.reporting.at(0).total_us;
}

ScenarioResult run_scenario(const ScenarioConfig& config) {
  TestbedConfig tb_cfg;
  tb_cfg.scheduler.subwindows = config.sched_subwindows;
  config.congestion.apply(tb_cfg.fabric);
  config.qos.apply(tb_cfg.fabric);
  Testbed tb(tb_cfg);
  ScenarioResult result;
  sim::Observer observer(
      tb.sim(),
      {config.trace_path, config.collect_metrics, config.metrics_period},
      result.metrics, result.metrics_series);

  // --- DCQCN rate control (resex::congestion), if enabled --------------------
  std::unique_ptr<congestion::RateController> rate_controller;
  if (config.congestion.rate_control && config.congestion.ecn_kmax > 0) {
    rate_controller = std::make_unique<congestion::RateController>(
        tb.fabric(), config.congestion.dcqcn);
  }

  // --- fault injection (resex::fault), if a plan is given --------------------
  const fault::FaultPlan fault_plan = fault::FaultPlan::parse(config.faults);
  std::unique_ptr<fault::FaultInjector> injector;
  if (fault_plan.any()) {
    // Stream 0xFA17 keeps the injector's draws clear of every workload
    // stream; keying on the scenario seed makes fault runs replicable.
    injector = std::make_unique<fault::FaultInjector>(
        fault_plan, sim::derive(config.seed, 0xFA17));
    // Node A hosts dom0 and the controller — control-path delay windows
    // apply to its hypercalls.
    injector->arm(tb.fabric(), &tb.node_a());
    // Surface the injector's tallies in the per-trial metrics snapshot, next
    // to the fabric's own health counters (retransmits, qp errors).
    tb.sim().metrics().gauge_fn(
        "fault.drops_injected", [inj = injector.get()] {
          return static_cast<double>(inj->drops_injected());
        });
    tb.sim().metrics().gauge_fn(
        "fault.corrupts_injected", [inj = injector.get()] {
          return static_cast<double>(inj->corrupts_injected());
        });
  }

  // --- deploy the workloads --------------------------------------------------
  std::vector<benchex::Service*> reporting;
  for (std::uint32_t i = 0; i < config.reporting_count; ++i) {
    auto cfg = reporting_config(config.reporting_buffer, config.reporting_rate,
                                sim::derive(config.seed, i));
    cfg.arrivals.kind = config.reporting_arrivals;
    cfg.metrics_start = config.warmup;
    reporting.push_back(
        &tb.deploy_pair(cfg, "rep" + std::to_string(i), /*with_agent=*/true));
  }
  result.reporting_vm_id = reporting.front()->server_domain().id();

  benchex::Service* interferer = nullptr;
  if (config.with_interferer) {
    // Stream id 100 keeps the interferer's draws clear of the reporting VMs'
    // (ids 0..count-1) for any plausible reporting_count.
    auto cfg = interferer_config(config.intf_buffer, config.intf_depth,
                                 sim::derive(config.seed, 100));
    if (config.intf_rate > 0.0) {
      cfg.mode = benchex::LoadMode::kOpenLoop;
      cfg.arrivals = {.kind = trace::ArrivalKind::kFixedRate,
                      .rate_per_sec = config.intf_rate};
      cfg.queue_depth = 0;
    }
    cfg.think_time = static_cast<sim::SimDuration>(config.intf_think_us *
                                                   sim::kMicrosecond);
    cfg.metrics_start = config.warmup;
    interferer = &tb.deploy_pair(cfg, "intf", /*with_agent=*/true);
    result.interferer_vm_id = interferer->server_domain().id();
    if (config.intf_cap < 100.0) {
      tb.node_a().scheduler().set_cap(interferer->server_domain().vcpu(),
                                      config.intf_cap);
    }
  }

  // --- ResEx (IBMon + controller), if a policy is active ---------------------
  std::unique_ptr<ibmon::IbMon> ibmon;
  std::unique_ptr<ResExController> controller;
  if (config.policy != PolicyKind::kNone) {
    result.baseline_mean_us = config.baseline_mean_us.has_value()
                                  ? *config.baseline_mean_us
                                  : measure_base_total_us(config);

    ibmon::IbMonConfig mon_cfg{.sample_period = config.ibmon_period,
                               .mtu_bytes = tb.fabric().config().mtu_bytes};
    if (fault_plan.any()) {
      // Under fault injection the rings can go silent (flapped link, stalled
      // HCA); let the controller detect the gap and hold its last healthy
      // observation rather than pricing on it.
      mon_cfg.stale_after = 5 * sim::kMillisecond;
    }
    ibmon = std::make_unique<ibmon::IbMon>(tb.sim(), mon_cfg);
    auto watch = [&](hv::Domain& dom) {
      dom.memory().set_foreign_mappable(true);
      ibmon->watch_domain(dom, tb.hca_a().domain_cqs(dom.id()));
    };
    for (auto* pair : reporting) watch(pair->server_domain());
    if (interferer != nullptr) watch(interferer->server_domain());
    ibmon->start();

    ControllerConfig ctrl_cfg;
    ctrl_cfg.resos = config.resos;
    ctrl_cfg.sla.threshold_pct = config.sla_threshold_pct;
    controller = std::make_unique<ResExController>(
        tb.node_a(), *ibmon, make_policy(config, result.interferer_vm_id),
        ctrl_cfg);
    for (auto* pair : reporting) {
      controller->monitor(pair->server_domain(), pair->agent(),
                          config.reporting_weight, result.baseline_mean_us);
    }
    if (interferer != nullptr) {
      // The interferer is charged for its usage but provides no latency
      // feedback (its SLA is best-effort).
      controller->monitor(interferer->server_domain(), nullptr,
                          config.intf_weight);
    }
    controller->start();
  }

  // --- run --------------------------------------------------------------------
  observer.start();
  tb.sim().run_until(config.warmup + config.duration);

  // --- collect ------------------------------------------------------------------
  for (std::size_t i = 0; i < reporting.size(); ++i) {
    result.reporting.push_back(
        summarize("rep" + std::to_string(i), *reporting[i]));
  }
  if (interferer != nullptr) {
    result.interferer = summarize("intf", *interferer);
    result.interferer_mbps =
        static_cast<double>(interferer->server_qp().bytes_sent()) /
        sim::to_sec(config.warmup + config.duration) / 1e6;
  }
  if (controller != nullptr) {
    result.timeline = controller->timeline();
  }
  if (tb.sim().tracer().enabled()) {
    // Frame the trace: a top-level core span for the whole scenario and one
    // for the warmup (these are the newest events, so they survive any ring
    // wrap and every trace shows the harness layer even without a policy).
    tb.sim().tracer().complete(
        "scenario.warmup", "core", 0, config.warmup,
        {"seed", static_cast<double>(config.seed)});
    tb.sim().tracer().complete(
        "scenario", "core", 0, tb.sim().now(),
        {"seed", static_cast<double>(config.seed)},
        {"reporting_vms", static_cast<double>(config.reporting_count)});
  }
  observer.finish();
  return result;
}

}  // namespace resex::core
