// Figure 2 generalized to cluster scale: N/4 latency-sensitive reporting
// services co-located with N/4 saturating interferers on N virtualized
// hosts, with N/4 spare nodes as the market's supply side.
//
// Static placement leaves every co-located server violating its SLA for the
// whole run; with the price-driven broker enabled, squeezed servers are
// live-migrated (pre-copy over the same fabric the tenants use) to spare
// nodes and the violations stop at the move. The table reports the pooled
// SLA violation rate, client latency, and the migration cost actually paid
// (bytes on the wire, blackout time).
//
// CLI: --nodes N[,N...] selects the cluster sizes (multiples of 4, default
// 8,16,24,32); everything else is the standard runner CLI (--jobs, --seeds,
// --json, --csv, --faults, ...). Results are byte-identical for any --jobs.

#include <sstream>
#include <string_view>

#include "bench_common.hpp"
#include "cluster/scenario.hpp"

namespace {

std::vector<std::uint32_t> parse_node_counts(const std::string& value,
                                             const char* prog) {
  std::vector<std::uint32_t> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const unsigned long n = std::strtoul(item.c_str(), nullptr, 10);
    if (n == 0 || n % 4 != 0) {
      std::cerr << prog << ": --nodes wants positive multiples of 4, got '"
                << item << "'\n";
      std::exit(2);
    }
    out.push_back(static_cast<std::uint32_t>(n));
  }
  if (out.empty()) {
    std::cerr << prog << ": --nodes wants a comma-separated list\n";
    std::exit(2);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resex;
  using namespace resex::bench;

  // Peel off --nodes before handing the rest to the shared runner CLI.
  std::vector<std::uint32_t> node_counts{8, 16, 24, 32};
  std::vector<char*> rest{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--nodes" && i + 1 < argc) {
      node_counts = parse_node_counts(argv[++i], argv[0]);
    } else if (arg.rfind("--nodes=", 0) == 0) {
      node_counts = parse_node_counts(std::string(arg.substr(8)), argv[0]);
    } else {
      rest.push_back(argv[i]);
    }
  }
  const auto opts =
      parse_cli(static_cast<int>(rest.size()), rest.data(), kOverlayFlags);

  std::vector<runner::GenericPoint> points;
  for (const std::uint32_t nodes : node_counts) {
    for (const bool migrate : {false, true}) {
      cluster::ClusterScenarioConfig config;
      config.nodes = nodes;
      config.migration_enabled = migrate;
      opts.apply(config);
      runner::GenericPoint p;
      p.label = std::to_string(nodes) + "n " + (migrate ? "resex" : "static");
      p.params = {{"nodes", std::to_string(nodes)},
                  {"placement", migrate ? "resex" : "static"}};
      p.seed = config.seed;
      p.run = [config](const runner::TrialContext& ctx) {
        auto cfg = config;
        ctx.apply(cfg);
        auto r = cluster::run_cluster_scenario(cfg);
        ctx.keep(r);
        const double svc0_mean =
            r.services.empty() ? 0.0 : r.services.front().client_mean_us;
        const double svc0_p99 =
            r.services.empty() ? 0.0 : r.services.front().client_p99_us;
        return std::vector<double>{
            r.violation_pct,
            svc0_mean,
            svc0_p99,
            r.sla_limit_us,
            static_cast<double>(r.migration.migrations),
            static_cast<double>(r.migration.bytes) / 1e6,
            static_cast<double>(r.migration.pause_ns_total) / 1e6};
      };
      points.push_back(std::move(p));
    }
  }

  return run_bench(
             opts, "Figure 2 scale-out: SLA violations vs cluster size",
             "N/4 reporting 64KB services co-located with N/4 2MB "
             "interferers, N/4 spare nodes; static placement vs the "
             "price-driven broker (live migration over the shared fabric). "
             "SLA: calibrated solo mean +15%, evaluated per client sample, "
             "coordinated-omission-free.",
             std::move(points),
             {"viol_pct", "svc0_mean_us", "svc0_p99_us", "sla_limit_us",
              "migrations", "mig_MB", "pause_ms"}).rc;
}
