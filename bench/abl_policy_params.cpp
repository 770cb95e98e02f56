// Ablation A3: IOShares SLA-threshold sweep, and the StaticReservation
// baseline the paper argues against.
//
// A tighter SLA threshold throttles the interferer harder (lower reporting
// latency, lower aggregate utilization); StaticReservation achieves
// isolation too but pays for it permanently, even when nobody interferes.
//
// Runner-backed: one serial base run measures the SLA baseline, then every
// policy point runs in parallel (--jobs) with optional replication
// (--seeds) and --json/--csv export.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace resex;
  using namespace resex::bench;

  const auto opts = parse_cli(argc, argv, kScenarioFlags);

  auto base_cfg = figure_config();
  if (opts.seed.has_value()) base_cfg.seed = *opts.seed;
  base_cfg.with_interferer = false;
  const auto base = core::run_scenario(base_cfg);
  const double baseline_total = base.reporting[0].total_us;

  runner::Sweep sweep(figure_config());
  sweep.point("base",
              [](core::ScenarioConfig& c) { c.with_interferer = false; });
  sweep.point("none", [](core::ScenarioConfig&) {});
  for (const double threshold : {5.0, 10.0, 15.0, 25.0, 50.0}) {
    sweep.point("IOShares sla=" + sim::format_double(threshold) + "%",
                [threshold, baseline_total](core::ScenarioConfig& c) {
                  c.policy = core::PolicyKind::kIOShares;
                  c.sla_threshold_pct = threshold;
                  c.baseline_mean_us = baseline_total;
                });
  }
  for (const double cap : {3.125, 10.0, 25.0}) {
    sweep.point("StaticReservation cap=" + sim::format_double(cap) + "%",
                [cap, baseline_total](core::ScenarioConfig& c) {
                  c.policy = core::PolicyKind::kStaticReservation;
                  c.static_cap_pct = cap;
                  c.baseline_mean_us = baseline_total;
                });
  }

  std::vector<runner::Metric> metrics{
      {"client_us",
       [](const core::ScenarioResult& r) {
         return r.reporting[0].client_mean_us;
       }},
      {"server_total_us",
       [](const core::ScenarioResult& r) { return r.reporting[0].total_us; }},
      {"intf_MBps",
       [](const core::ScenarioResult& r) { return r.interferer_mbps; }},
  };

  return run_figure_bench(
      opts,
      "Ablation A3: IOShares SLA threshold and StaticReservation baseline",
      "Isolation/utilization trade-off: reporting latency vs interferer "
      "throughput. SLA baseline total_us = " +
          sim::format_double(baseline_total) + ".",
      sweep, std::move(metrics));
}
