#pragma once
// Shared scaffolding for fabric tests: two nodes on one switch, plus a
// fabric::Endpoint (PD + CQs + QP + one registered buffer) on a fresh guest.
//
// Control-path setup here calls the HCA directly (synchronously) so tests
// can wire a world without running the simulation; the Verbs control-path
// costs are covered by dedicated tests.

#include <cstring>
#include <string>

#include "fabric/endpoint.hpp"
#include "fabric/hca.hpp"
#include "hv/node.hpp"
#include "sim/simulation.hpp"

namespace resex::fabric::testing {

/// Test fabric config with round numbers: 1 ns/byte exactly
/// (1 KiB packet = 1024 ns), making timings easy to reason about.
inline FabricConfig test_config() {
  FabricConfig cfg;
  cfg.link_bytes_per_sec = 1e9;  // 1 ns per byte
  return cfg;
}

/// Create a guest domain with an endpoint on the given HCA (free function so
/// custom topologies — multi-switch worlds, span tests — can reuse it).
inline Endpoint make_endpoint_on(hv::Node& node, Hca& hca,
                                 const std::string& name,
                                 std::size_t buf_bytes = 64 * 1024,
                                 std::uint32_t cq_entries = 1024) {
  return fabric::make_endpoint(
      hca, node.create_domain({.name = name, .mem_pages = 2048}),  // 8 MiB
      buf_bytes, cq_entries);
}

struct TwoNodeWorld {
  sim::Simulation sim;
  hv::Node node_a{sim, "A", 8};
  hv::Node node_b{sim, "B", 8};
  Fabric fabric;
  Hca* hca_a;
  Hca* hca_b;

  explicit TwoNodeWorld(FabricConfig cfg = test_config()) : fabric(sim, cfg) {
    hca_a = &fabric.add_node(node_a);
    hca_b = &fabric.add_node(node_b);
  }

  /// Create a guest domain with an endpoint on the given HCA.
  Endpoint make_endpoint(hv::Node& node, Hca& hca, const std::string& name,
                         std::size_t buf_bytes = 64 * 1024,
                         std::uint32_t cq_entries = 1024) {
    return make_endpoint_on(node, hca, name, buf_bytes, cq_entries);
  }

  /// Endpoint pair connected across the two nodes.
  std::pair<Endpoint, Endpoint> make_connected_pair(
      std::size_t buf_bytes = 64 * 1024) {
    Endpoint a = make_endpoint(node_a, *hca_a, "vmA", buf_bytes);
    Endpoint b = make_endpoint(node_b, *hca_b, "vmB", buf_bytes);
    Fabric::connect(*a.qp, *b.qp);
    return {std::move(a), std::move(b)};
  }
};

}  // namespace resex::fabric::testing
