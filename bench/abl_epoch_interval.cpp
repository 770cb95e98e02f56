// Ablation A1: sensitivity of FreeMarket to the epoch length.
//
// The allocation scales with the epoch (100 Resos/interval CPU; link
// MTU-rate I/O), so shorter epochs replenish more often: throttling
// episodes are shorter but more frequent. This bench quantifies the effect
// on the reporting VM's latency and the interferer's throughput.
//
// Runner-backed: the four epoch points run in parallel (--jobs) with
// optional seed replication (--seeds) and --json/--csv export.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace resex;
  using namespace resex::bench;

  const auto opts = parse_cli(argc, argv, kScenarioFlags);

  auto base = figure_config();
  base.duration = 2400_ms;
  base.policy = core::PolicyKind::kFreeMarket;
  base.baseline_mean_us = 150.0;

  runner::Sweep sweep(base);
  sweep.axis("epoch_ms", {250.0, 500.0, 1000.0, 2000.0},
             [](core::ScenarioConfig& c, double epoch_ms) {
               c.resos.epoch =
                   static_cast<std::uint64_t>(epoch_ms) * sim::kMillisecond;
               c.resos.cpu_resos_per_epoch =
                   100.0 *
                   static_cast<double>(c.resos.intervals_per_epoch());
               c.resos.io_resos_per_epoch_total =
                   1024.0 * 1024.0 * (epoch_ms / 1000.0);
             });

  std::vector<runner::Metric> metrics{
      {"client_us",
       [](const core::ScenarioResult& r) {
         return r.reporting[0].client_mean_us;
       }},
      {"server_total_us",
       [](const core::ScenarioResult& r) { return r.reporting[0].total_us; }},
      {"intf_MBps",
       [](const core::ScenarioResult& r) { return r.interferer_mbps; }},
      {"min_cap_2MB",
       [](const core::ScenarioResult& r) {
         double min_cap = 100.0;
         for (const auto& rec : r.timeline) {
           if (rec.vm == r.interferer_vm_id) {
             min_cap = std::min(min_cap, rec.cap);
           }
         }
         return min_cap;
       }},
  };

  return run_figure_bench(
      opts, "Ablation A1: FreeMarket epoch-length sensitivity",
      "Epoch swept 250ms..2s (interval fixed at 1ms; allocations scale "
      "with the epoch).",
      sweep, std::move(metrics));
}
