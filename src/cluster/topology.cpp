#include "cluster/topology.hpp"

#include <utility>

namespace resex::cluster {

Cluster::Cluster(ClusterConfig config)
    : config_(config), fabric_(sim_, config.fabric) {
  if (config_.nodes == 0) {
    throw std::invalid_argument("Cluster: need at least one node");
  }
  nodes_.reserve(config_.nodes);
  for (std::uint32_t i = 0; i < config_.nodes; ++i) {
    // Appended, not `"n" + std::to_string(i)`: at -O3 GCC 12 inlines that
    // operator+ into a memcpy it wrongly flags as overlapping (-Wrestrict).
    std::string name(1, 'n');
    name += std::to_string(i);
    nodes_.push_back(std::make_unique<hv::Node>(sim_, std::move(name),
                                                config_.pcpus_per_node));
  }
  switch (config_.topology) {
    case TopologyKind::kStar: build_star(); break;
    case TopologyKind::kFatTree: build_fat_tree(); break;
  }
}

void Cluster::build_star() {
  for (auto& n : nodes_) hcas_.push_back(&fabric_.add_node(*n));
}

void Cluster::build_fat_tree() {
  if (config_.leaf_width == 0 || config_.spines == 0) {
    throw std::invalid_argument("Cluster: fat-tree needs leaf_width, spines");
  }
  const std::uint32_t leaves =
      (config_.nodes + config_.leaf_width - 1) / config_.leaf_width;
  // Switch 0 is leaf 0; leaves 1.. and then the spines are added after it.
  std::vector<std::uint32_t> leaf_sw(leaves);
  leaf_sw[0] = 0;
  for (std::uint32_t l = 1; l < leaves; ++l) leaf_sw[l] = fabric_.add_switch();
  std::vector<std::uint32_t> spine_sw(config_.spines);
  for (auto& s : spine_sw) s = fabric_.add_switch();

  for (const std::uint32_t leaf : leaf_sw) {
    for (const std::uint32_t spine : spine_sw) {
      fabric_.add_trunk(leaf, spine, config_.trunk_bandwidth_scale);
    }
  }
  // Leaf routing: every spine is an equal-cost next hop for cross-leaf
  // traffic, installed in rotation starting from the destination-indexed
  // spine — candidate 0 is exactly the single route the pre-multipath
  // builder picked, so static mode stays byte-identical while ECMP and
  // adaptive spread flows over the whole candidate set. Spines reach every
  // leaf over their direct trunk (the fabric's fallback), so no spine table
  // entries are needed.
  for (std::uint32_t src = 0; src < leaves; ++src) {
    for (std::uint32_t dst = 0; dst < leaves; ++dst) {
      if (src == dst) continue;
      for (std::uint32_t k = 0; k < config_.spines; ++k) {
        fabric_.add_route_candidate(leaf_sw[src], leaf_sw[dst],
                                    spine_sw[(dst + k) % config_.spines]);
      }
    }
  }
  for (std::uint32_t i = 0; i < config_.nodes; ++i) {
    hcas_.push_back(
        &fabric_.add_node(*nodes_[i], leaf_sw[i / config_.leaf_width]));
  }
}

}  // namespace resex::cluster
