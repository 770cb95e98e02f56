// Ablation A4: hardware QoS (per-flow rate limits on the HCA, as supported
// by newer InfiniBand cards — Section I) versus ResEx's CPU-cap actuation.
//
// A hardware rate limit isolates perfectly and instantly but must be
// provisioned (what limit?) and wastes fabric when the bully is idle;
// IOShares discovers the right throttle from latency feedback. This bench
// puts both on the same scenario.
//
// Runner-backed via generic points (the hardware rows program the HCA's
// token buckets directly): mechanisms run in parallel (--jobs), replicated
// over derived seeds (--seeds), exported with --json/--csv.

#include "bench_common.hpp"
#include "core/testbed.hpp"
#include "sim/rng.hpp"

int main(int argc, char** argv) {
  using namespace resex;
  using namespace resex::bench;

  const auto opts = parse_cli(argc, argv, {});

  std::vector<runner::GenericPoint> points;

  auto hw_point = [](double limit_mbps) {
    runner::GenericPoint p;
    p.label = limit_mbps > 0
                  ? "hw-rate-limit " +
                        sim::format_double(limit_mbps) + "MB/s"
                  : "none";
    p.params = {{"mechanism", limit_mbps > 0 ? "hw-rate-limit" : "none"},
                {"limit_MBps", sim::format_double(limit_mbps)}};
    p.run = [limit_mbps](const runner::TrialContext& ctx) {
      core::Testbed tb;
      auto observer = ctx.observe(tb.sim());
      auto rep_cfg =
          core::reporting_config(64 * 1024, 2000.0, sim::derive(ctx.seed, 0));
      rep_cfg.metrics_start = 100_ms;
      auto& rep = tb.deploy_pair(rep_cfg, "rep");
      auto intf_cfg = core::interferer_config(2 * 1024 * 1024, 2,
                                              sim::derive(ctx.seed, 100));
      intf_cfg.metrics_start = 100_ms;
      auto& intf = tb.deploy_pair(intf_cfg, "intf");
      if (limit_mbps > 0.0) {
        tb.hca_a().uplink().set_flow_rate_limit(
            intf.server_qp().num(), limit_mbps * 1e6);
      }
      observer.start();
      tb.sim().run_until(1300_ms);
      observer.finish();
      const double mbps =
          static_cast<double>(intf.server_qp().bytes_sent()) / 1.3 / 1e6;
      return std::vector<double>{rep.client_metrics().latency_us.mean(),
                                 rep.server_metrics().total_us.mean(), mbps};
    };
    return p;
  };

  points.push_back(hw_point(0.0));
  for (const double limit : {500.0, 250.0, 125.0}) {
    points.push_back(hw_point(limit));
  }

  {
    runner::GenericPoint ios;
    ios.label = "resex-ioshares sla=15%";
    ios.params = {{"mechanism", "resex-ioshares"}, {"sla_pct", "15"}};
    ios.run = [](const runner::TrialContext& ctx) {
      auto cfg = figure_config();
      cfg.policy = core::PolicyKind::kIOShares;
      ctx.apply(cfg);
      auto r = core::run_scenario(cfg);
      ctx.keep(r);
      return std::vector<double>{r.reporting[0].client_mean_us,
                                 r.reporting[0].total_us, r.interferer_mbps};
    };
    points.push_back(std::move(ios));
  }

  const int rc = run_bench(
      opts, "Ablation A4: hardware per-flow rate limit vs ResEx",
      "64KB reporting VM vs 2MB interferer; hardware token-bucket limits "
      "on the interferer's uplink flow vs the IOShares policy.",
      std::move(points), {"client_us", "server_total_us", "intf_MBps"}).rc;

  std::cout << "\nHardware limits isolate at any provisioned rate, but the "
               "operator must\npick the number; IOShares converges to a "
               "comparable operating point\nfrom the SLA alone, and releases "
               "the throttle when interference stops\n(see Figure 8).\n";
  return rc;
}
