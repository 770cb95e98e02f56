// Ablation A2: IBMon sampling period vs estimation accuracy.
//
// IBMon reconstructs each VM's I/O from sampled CQ rings. Sampling slower
// than the ring turnover loses laps; the parity+timestamp resync then has
// to substitute estimates. This bench compares IBMon's byte counts against
// the HCA's ground-truth counters as the sampling period grows (the CQ is
// deliberately small, 256 entries, to make overruns reachable).
//
// Runner-backed via generic points (the trial programs IBMon directly, not
// run_scenario): periods run in parallel (--jobs), replicated over derived
// seeds (--seeds), exported with --json/--csv.

#include "bench_common.hpp"
#include "core/testbed.hpp"
#include "ibmon/ibmon.hpp"

int main(int argc, char** argv) {
  using namespace resex;
  using namespace resex::bench;

  const auto opts = parse_cli(argc, argv, {});

  std::vector<runner::GenericPoint> points;
  for (const std::uint64_t period_us :
       {100ULL, 1000ULL, 10000ULL, 100000ULL, 500000ULL}) {
    runner::GenericPoint p;
    p.label = sim::format_double(static_cast<double>(period_us));
    p.params = {{"period_us", p.label}};
    p.run = [period_us](const runner::TrialContext& ctx) {
      core::Testbed tb;
      auto observer = ctx.observe(tb.sim());
      auto cfg = core::reporting_config(64 * 1024, 2000.0, ctx.seed);
      cfg.cq_entries = 256;
      auto& pair = tb.deploy_pair(cfg, "rep");
      pair.server_domain().memory().set_foreign_mappable(true);

      ibmon::IbMon mon(tb.sim(),
                       {.sample_period = period_us * sim::kMicrosecond,
                        .mtu_bytes = 1024});
      mon.watch_domain(pair.server_domain(),
                       tb.hca_a().domain_cqs(pair.server_domain().id()));
      mon.start();
      observer.start();
      tb.sim().run_until(2 * sim::kSecond);
      mon.sample_now();  // final catch-up pass
      observer.finish();

      const auto st = mon.stats(pair.server_domain().id());
      const double truth =
          static_cast<double>(pair.server_qp().bytes_sent());
      const double seen = static_cast<double>(st.send_bytes);
      return std::vector<double>{seen / 1e6, truth / 1e6,
                                 (seen - truth) / truth * 100.0,
                                 static_cast<double>(st.missed_estimate),
                                 static_cast<double>(mon.samples_taken())};
    };
    points.push_back(std::move(p));
  }

  return run_bench(
      opts, "Ablation A2: IBMon sampling period vs estimation error",
      "64KB reporting pair at 2000 req/s, CQ ring of 256 entries; ground "
      "truth from HCA counters. Point label = sampling period in us.",
      std::move(points),
      {"ibmon_MB", "truth_MB", "error_pct", "missed_cqes", "samples"}).rc;
}
