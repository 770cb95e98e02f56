// Figure 2: change in server latency (CTime / WTime / PTime) as the number
// of 1:1 server/client pairs grows, with and without an added interfering
// load.
//
// Paper result: CTime is flat (compute is unaffected by I/O interference);
// WTime and PTime grow with collocated load because RDMA operations take
// longer at the device level; collocating only the latency-sensitive
// servers (no bulk interferer) degrades latency much less.
//
// Runner-backed: the 3x2 grid runs in parallel (--jobs) with optional seed
// replication (--seeds) and --json/--csv export.

#include "bench_common.hpp"
#include "sim/stats.hpp"

int main(int argc, char** argv) {
  using namespace resex;
  using namespace resex::bench;

  const auto opts = parse_cli(argc, argv, kScenarioFlags);

  auto base = figure_config();
  // Poisson order flow: transient queueing makes PTime's growth with
  // service-time inflation visible, as in the paper's trace workloads.
  base.reporting_arrivals = trace::ArrivalKind::kPoisson;

  runner::Sweep sweep(base);
  sweep.axis("servers", {1.0, 2.0, 3.0},
             [](core::ScenarioConfig& c, double n) {
               c.reporting_count = static_cast<std::uint32_t>(n);
             });
  sweep.axis("load",
             {{"no", [](core::ScenarioConfig& c) { c.with_interferer = false; }},
              {"yes",
               [](core::ScenarioConfig& c) { c.with_interferer = true; }}});

  // The paper reports one bar per group: average the per-VM means (and the
  // per-request standard deviations) across the n reporting servers.
  auto avg = [](double core::VmSummary::* field) {
    return [field](const core::ScenarioResult& r) {
      sim::Welford w;
      for (const auto& vm : r.reporting) w.add(vm.*field);
      return w.mean();
    };
  };

  std::vector<runner::Metric> metrics{
      {"CTime_us", avg(&core::VmSummary::ctime_us)},
      {"CTime_sd", avg(&core::VmSummary::ctime_sd_us)},
      {"WTime_us", avg(&core::VmSummary::wtime_us)},
      {"WTime_sd", avg(&core::VmSummary::wtime_sd_us)},
      {"PTime_us", avg(&core::VmSummary::ptime_us)},
      {"PTime_sd", avg(&core::VmSummary::ptime_sd_us)},
      {"total_us", avg(&core::VmSummary::total_us)},
  };

  return run_figure_bench(
      opts, "Figure 2: Server latency decomposition vs number of servers",
      "1-3 reporting 64KB pairs (server on node A, client on node B), "
      "each VM on its own CPU; optional 2MB interferer. *_sd columns are "
      "per-request standard deviations.",
      sweep, std::move(metrics));
}
