#pragma once
// The paper's experimental testbed, in simulation: two Dell PowerEdge 1950s
// (8-core and 4-core) with Mellanox HCAs on one Xsigo switch. Server VMs are
// deployed on node A, their clients on node B, each VM pinned to its own
// PCPU — the Section VII configuration.
//
// Also provides the two canonical workload configurations the evaluation
// uses: the latency-sensitive "reporting" VM (named by its buffer size, e.g.
// the 64KB VM) and the closed-loop "interfering" VM (e.g. the 2MB VM).

#include <memory>
#include <string>
#include <vector>

#include "benchex/service.hpp"
#include "fabric/hca.hpp"
#include "hv/node.hpp"
#include "sim/simulation.hpp"

namespace resex::core {

struct TestbedConfig {
  std::uint32_t node_a_pcpus = 8;  // dual-socket quad-core Xeon
  // The paper's second machine has 4 cores; we default to 8 so the Figure 2
  // configuration (3 client VMs + the interferer's client + dom0) keeps one
  // PCPU per VM. Client-side CPU is never the measured resource.
  std::uint32_t node_b_pcpus = 8;
  fabric::FabricConfig fabric{};
  hv::SchedulerConfig scheduler{};
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {})
      : node_a_(sim_, "A", config.node_a_pcpus, config.scheduler),
        node_b_(sim_, "B", config.node_b_pcpus, config.scheduler),
        fabric_(sim_, config.fabric),
        hca_a_(&fabric_.add_node(node_a_)),
        hca_b_(&fabric_.add_node(node_b_)) {}

  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] hv::Node& node_a() noexcept { return node_a_; }
  [[nodiscard]] hv::Node& node_b() noexcept { return node_b_; }
  [[nodiscard]] fabric::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] fabric::Hca& hca_a() noexcept { return *hca_a_; }
  [[nodiscard]] fabric::Hca& hca_b() noexcept { return *hca_b_; }

  /// Deploy a BenchEx pair (server VM on A, client VM on B) and start it.
  benchex::Service& deploy_pair(const benchex::BenchExConfig& config,
                                const std::string& name,
                                bool with_agent = true) {
    pairs_.push_back(std::make_unique<benchex::Service>(
        *hca_a_, *hca_b_, config, name, with_agent));
    pairs_.back()->start();
    return *pairs_.back();
  }

 private:
  sim::Simulation sim_;
  hv::Node node_a_;
  hv::Node node_b_;
  fabric::Fabric fabric_;
  fabric::Hca* hca_a_;
  fabric::Hca* hca_b_;
  std::vector<std::unique_ptr<benchex::Service>> pairs_;
};

/// The latency-sensitive workload configuration ("the <buffer> VM"): an
/// open-loop feed with real exchange processing per request.
[[nodiscard]] inline benchex::BenchExConfig reporting_config(
    std::uint32_t buffer_bytes = 64 * 1024, double rate_per_sec = 2000.0,
    std::uint64_t seed = 1) {
  benchex::BenchExConfig cfg;
  cfg.buffer_bytes = buffer_bytes;
  cfg.mode = benchex::LoadMode::kOpenLoop;
  cfg.arrivals = {.kind = trace::ArrivalKind::kFixedRate,
                  .rate_per_sec = rate_per_sec};
  cfg.kind = finance::RequestKind::kQuote;
  cfg.instruments = 80;
  cfg.ring_slots = 16;
  cfg.seed = seed;
  return cfg;
}

/// The interference-generator configuration: closed loop at queue depth 2
/// (keeps the link saturated), negligible compute, big buffers.
[[nodiscard]] inline benchex::BenchExConfig interferer_config(
    std::uint32_t buffer_bytes = 2 * 1024 * 1024, std::uint32_t depth = 2,
    std::uint64_t seed = 2) {
  benchex::BenchExConfig cfg;
  cfg.buffer_bytes = buffer_bytes;
  cfg.mode = benchex::LoadMode::kClosedLoop;
  cfg.queue_depth = depth;
  cfg.kind = finance::RequestKind::kQuote;
  cfg.instruments = 1;
  cfg.ring_slots = 4;
  cfg.seed = seed;
  return cfg;
}

}  // namespace resex::core
