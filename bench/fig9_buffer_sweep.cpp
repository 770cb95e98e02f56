// Figure 9: FreeMarket vs IOShares behaviour as the interfering VM's buffer
// size varies (64KB .. 1MB).
//
// Paper result: IOShares keeps the reporting VM's average latency very
// close to the base value across the sweep; FreeMarket lies between the
// base and interfered values (work-conserving but latency-blind).
//
// Runner-backed: one serial base run measures the SLA baseline the policies
// are configured with (as an operator would), then the buffer x policy grid
// runs in parallel; one row per (buffer, policy) instead of the old wide
// layout. --seeds replicates every grid point with derived seed streams.

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
  {
    std::vector<std::pair<std::string, runner::Sweep::Apply>> buffers;
    for (const std::uint32_t buf : {64u * 1024, 128u * 1024, 256u * 1024,
                                    512u * 1024, 1024u * 1024}) {
      buffers.emplace_back(buffer_name(buf),
                           [buf](core::ScenarioConfig& c) {
                             c.intf_buffer = buf;
                           });
    }
    sweep.axis("intf_buffer", std::move(buffers));
  }
  sweep.axis(
      "policy",
      {{"interfered",
        [](core::ScenarioConfig& c) { c.policy = core::PolicyKind::kNone; }},
       {"freemarket",
        [baseline_total](core::ScenarioConfig& c) {
          c.policy = core::PolicyKind::kFreeMarket;
          c.baseline_mean_us = baseline_total;
        }},
       {"ioshares", [baseline_total](core::ScenarioConfig& c) {
          c.policy = core::PolicyKind::kIOShares;
          c.baseline_mean_us = baseline_total;
        }}});
  sweep.point("base",
              [](core::ScenarioConfig& c) { c.with_interferer = false; });

  std::vector<runner::Metric> metrics{
      {"total_us",
       [](const core::ScenarioResult& r) { return r.reporting[0].total_us; }},
      {"client_us",
       [](const core::ScenarioResult& r) {
         return r.reporting[0].client_mean_us;
       }},
      {"intf_MBps",
       [](const core::ScenarioResult& r) { return r.interferer_mbps; }},
  };

  return run_figure_bench(
      opts, "Figure 9: FreeMarket / IOShares vs interferer buffer size",
      "Average I/O latency of the 64KB reporting VM; SLA baseline total_us "
      "= " + sim::format_double(baseline_total) +
          " measured from an uncontended base run.",
      sweep, std::move(metrics));
}
