// Writing your own pricing policy against the public API.
//
// ResEx's policy interface (core/policy.hpp) receives per-interval
// observations for every monitored VM and returns CPU-cap decisions. This
// example implements "BandwidthBudget": a policy that ignores Resos
// entirely and simply caps any VM whose smoothed send rate exceeds a
// per-VM MTU budget — a useful contrast to the paper's economic policies.
//
//   $ ./example_custom_policy

#include <algorithm>
#include <iostream>
#include <unordered_map>

#include "core/experiment.hpp"

namespace {

using namespace resex;

/// Cap VMs that exceed a fixed MTU-per-interval budget; restore them once
/// they behave. No currency, no latency feedback: a pure rate limiter.
class BandwidthBudgetPolicy final : public core::PricingPolicy {
 public:
  explicit BandwidthBudgetPolicy(double mtus_per_interval)
      : budget_(mtus_per_interval) {}

  const char* name() const noexcept override { return "BandwidthBudget"; }

  core::PolicyDecision on_interval(
      const core::VmObservation& self,
      std::span<const core::VmObservation> all,
      core::ResosLedger& ledger) override {
    (void)all;
    ledger.deduct(self.id, self.cpu_pct + self.mtus);  // bookkeeping only
    double& ewma = ewma_[self.id];
    ewma = 0.9 * ewma + 0.1 * self.mtus;
    const double cap = ewma > budget_
                           ? std::max(5.0, 100.0 * budget_ / ewma)
                           : 100.0;
    return core::PolicyDecision{cap};
  }

 private:
  double budget_;
  std::unordered_map<hv::DomainId, double> ewma_;
};

}  // namespace

int main() {
  using namespace resex::sim::literals;

  // Build the standard noisy-neighbour testbed by hand so we can install
  // the custom policy (run_scenario only knows the built-in ones).
  core::Testbed tb;
  auto& victim = tb.deploy_pair(core::reporting_config(), "victim");
  auto& bully = tb.deploy_pair(core::interferer_config(), "bully");

  resex::ibmon::IbMon ibmon(tb.sim());
  for (auto* pair : {&victim, &bully}) {
    pair->server_domain().memory().set_foreign_mappable(true);
    ibmon.watch_domain(pair->server_domain(),
                       tb.hca_a().domain_cqs(pair->server_domain().id()));
  }
  ibmon.start();

  // Budget: ~200 MTUs per 1 ms interval = ~200 MB/s per VM.
  auto policy = std::make_unique<BandwidthBudgetPolicy>(200.0);
  core::ResExController controller(tb.node_a(), ibmon, std::move(policy));
  controller.monitor(victim.server_domain(), victim.agent());
  controller.monitor(bully.server_domain(), nullptr);
  controller.start();

  tb.sim().run_until(1 * resex::sim::kSecond);

  std::cout << "policy           : "
            << controller.policy().name() << "\n";
  std::cout << "victim latency   : "
            << victim.client_metrics().latency_us.mean() << " us (mean), "
            << victim.client_metrics().latency_us.percentile(99)
            << " us (p99)\n";
  double min_cap = 100.0;
  for (const auto& rec : controller.timeline()) {
    if (rec.vm == bully.server_domain().id()) {
      min_cap = std::min(min_cap, rec.cap);
    }
  }
  std::cout << "bully minimum cap: " << min_cap << "%\n";
  std::cout << "\nCompare with example_noisy_neighbor: a static budget "
               "protects latency\nbut cannot distinguish harmless bursts "
               "from real congestion the way\nIOShares' latency-feedback "
               "pricing does.\n";
  return 0;
}
