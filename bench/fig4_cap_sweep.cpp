// Figure 4: reporting-server latency as the 2MB interferer's CPU cap is
// decreased from 100% to 10%, plus the buffer-ratio cap (100/32 ~= 3%) and
// the base case.
//
// Paper result: latency falls steadily as the cap shrinks; at the
// buffer-ratio-equivalent cap it reaches the base latency.
//
// Runner-backed: trials run in parallel (--jobs), each cap point can be
// replicated over derived seed streams (--seeds), results export with
// --json/--csv. Output is byte-identical for any --jobs value.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace resex;
  using namespace resex::bench;

  const auto opts = parse_cli(argc, argv, kScenarioFlags);

  runner::Sweep sweep(figure_config());
  sweep.axis("cap_pct",
             {100.0, 90.0, 80.0, 70.0, 60.0, 50.0, 40.0, 30.0, 20.0, 10.0,
              3.125},
             [](core::ScenarioConfig& c, double cap) { c.intf_cap = cap; });
  sweep.point("base",
              [](core::ScenarioConfig& c) { c.with_interferer = false; });

  std::vector<runner::Metric> metrics{
      {"CTime_us",
       [](const core::ScenarioResult& r) { return r.reporting[0].ctime_us; }},
      {"WTime_us",
       [](const core::ScenarioResult& r) { return r.reporting[0].wtime_us; }},
      {"PTime_us",
       [](const core::ScenarioResult& r) { return r.reporting[0].ptime_us; }},
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
      opts, "Figure 4: Latency vs interferer CPU cap (2MB interferer)",
      "Reporting VM: 64KB, interferer: 2MB closed loop; the interferer's "
      "static cap is swept. '3.125' is the buffer-ratio cap 100/32.",
      sweep, std::move(metrics));
}
