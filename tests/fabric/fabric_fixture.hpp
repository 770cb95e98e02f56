#pragma once
// Shared scaffolding for fabric tests: two nodes on one switch, plus a
// fabric::Endpoint (PD + CQs + QP + one registered buffer) on a fresh guest.
//
// Control-path setup here calls the HCA directly (synchronously) so tests
// can wire a world without running the simulation; the Verbs control-path
// costs are covered by dedicated tests.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fabric/endpoint.hpp"
#include "fabric/fabric.hpp"
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

/// A Channel sink that hands each delivered packet to `fn`, so a test can
/// sink into a capturing lambda (the channel itself takes a plain function
/// and a context). Attach it to a channel, then set or replace `fn`; it must
/// outlive the channel's deliveries.
struct TestSink {
  std::function<void(detail::Packet&&)> fn;

  TestSink() = default;
  TestSink(const TestSink&) = delete;  // channels hold its address
  TestSink& operator=(const TestSink&) = delete;

  void attach(Channel& chan) {
    chan.set_sink(
        [](void* self, detail::Packet&& p) {
          static_cast<TestSink*>(self)->fn(std::move(p));
        },
        this);
  }
};

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

/// Every channel of `fabric` is idle, with no backlog (port-wide or per
/// lane), no open packet train and no paused lane, and every switch pool is
/// back at 0. Channel::launch subtracts without clamping, so a count that
/// drifts shows here as non-zero or wrapped around; an empty port has sent
/// XON for every XOFF, so a lane still paused is an unbalanced pause count.
/// `lossless`: the world runs PFC without a fault hook, its ports provisioned
/// to the headroom bound (DESIGN.md §8.1), so no channel tail-dropped. An
/// undersized PFC port drops its overshoot by design, hence the caller says.
inline void expect_drained(Fabric& fabric, bool lossless = false) {
  if (lossless) {
    EXPECT_TRUE(fabric.config().pfc_enabled);
    EXPECT_EQ(fabric.fault_hook(), nullptr);
  }
  std::vector<const Channel*> channels;
  for (std::size_t i = 0; i < fabric.hca_count(); ++i) {
    channels.push_back(&fabric.hca(i).uplink());
    channels.push_back(&fabric.hca(i).downlink());
  }
  fabric.for_each_trunk([&](std::uint32_t, std::uint32_t, Channel& c) {
    channels.push_back(&c);
  });
  for (const Channel* c : channels) {
    SCOPED_TRACE(c->name());
    EXPECT_FALSE(c->in_train());
    EXPECT_FALSE(c->busy());
    EXPECT_FALSE(c->paused());
    if (lossless) {
      EXPECT_EQ(c->buf_drops(), 0u);
    }
    EXPECT_EQ(c->backlog_packets(), 0u);
    EXPECT_EQ(c->backlog_bytes(), 0u);
    for (std::uint8_t vl = 0; vl < qos::kMaxVls; ++vl) {
      EXPECT_EQ(c->vl_backlog_packets(vl), 0u);
      EXPECT_EQ(c->vl_backlog_bytes(vl), 0u);
    }
  }
  for (const auto& s : fabric.simulation().metrics().snapshot().samples) {
    if (s.name.ends_with(".pool_occupied_bytes")) {
      EXPECT_EQ(s.value, 0.0) << s.name;
    }
  }
}

}  // namespace resex::fabric::testing
