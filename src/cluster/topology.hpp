#pragma once
// Multi-node cluster assembly: N virtualized hosts on a shared fabric.
//
// Two canonical shapes:
//  - star: every host port on one switch (the paper's Xsigo testbed, scaled
//    out) — one hop between any two hosts.
//  - 2-tier fat-tree: hosts grouped onto leaf switches of `leaf_width`,
//    every leaf trunked to every spine. Cross-leaf packets take three
//    store-and-forward hops (leaf -> spine -> leaf), each a real Channel
//    charging serialization + propagation and arbitrating per-QP. The spine
//    for a flow is chosen by destination leaf (dst_leaf % spines), so
//    routing is deterministic and ECMP-ish without per-flow state.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fabric/fabric.hpp"
#include "hv/node.hpp"
#include "sim/simulation.hpp"

namespace resex::cluster {

enum class TopologyKind : std::uint8_t { kStar, kFatTree };

struct ClusterConfig {
  std::uint32_t nodes = 8;
  std::uint32_t pcpus_per_node = 4;
  TopologyKind topology = TopologyKind::kStar;
  /// Fat-tree shape (ignored for star): hosts per leaf switch and number of
  /// spine switches. Leaves = ceil(nodes / leaf_width).
  std::uint32_t leaf_width = 4;
  std::uint32_t spines = 2;
  /// Trunk bandwidth as a multiple of the host-port rate (spine links are
  /// typically fatter than edge ports).
  double trunk_bandwidth_scale = 2.0;
  fabric::FabricConfig fabric{};
};

/// Owns the simulation, the fabric, and all nodes ("n0".."n<N-1>") of one
/// cluster. The topology builders run at construction.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] fabric::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] const ClusterConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::uint32_t node_count() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  [[nodiscard]] hv::Node& node(std::uint32_t i) { return *nodes_.at(i); }
  [[nodiscard]] fabric::Hca& hca(std::uint32_t i) { return *hcas_.at(i); }
  /// Leaf switch a node sits on (always 0 for star).
  [[nodiscard]] std::uint32_t switch_of_node(std::uint32_t i) const {
    return fabric_.switch_of(hcas_.at(i)->id());
  }

 private:
  void build_star();
  void build_fat_tree();

  ClusterConfig config_;
  sim::Simulation sim_;
  fabric::Fabric fabric_;
  std::vector<std::unique_ptr<hv::Node>> nodes_;
  std::vector<fabric::Hca*> hcas_;
};

}  // namespace resex::cluster
