// resex PFC / lossless-fabric coverage: per-port pause/resume gates whole
// channels and keeps finite-buffer fabrics drop-free where tail-drop loses
// packets; pause frames propagate hop by hop through the fat-tree and
// head-of-line block victims that share only upstream links with the hot
// port; the shared per-switch buffer pool applies Choudhury-Hahne dynamic
// thresholds; byte-based occupancy scales the ECN thresholds; and all of it
// stays deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "../fabric/fabric_fixture.hpp"
#include "cluster/topology.hpp"
#include "congestion/config.hpp"

namespace resex::fabric {
namespace {

using congestion::CongestionConfig;
using sim::SimTime;
using sim::Task;
using testing::make_endpoint_on;

/// N sender nodes streaming into one sink node through one switch — the
/// incast that pressures the sink's downlink (same shape as the congestion
/// suite's world, rebuilt here so the suites stay independent).
struct IncastWorld {
  sim::Simulation sim;
  FabricConfig cfg;
  std::unique_ptr<Fabric> fabric;
  std::vector<std::unique_ptr<hv::Node>> nodes;
  std::vector<Hca*> hcas;
  std::vector<Endpoint> sources, sinks;

  IncastWorld(int senders, const CongestionConfig& congestion) {
    cfg = testing::test_config();
    congestion.apply(cfg);
    fabric = std::make_unique<Fabric>(sim, cfg);
    nodes.push_back(std::make_unique<hv::Node>(
        sim, "n0", static_cast<std::uint32_t>(senders) + 2));
    hcas.push_back(&fabric->add_node(*nodes.back()));
    for (int i = 1; i <= senders; ++i) {
      nodes.push_back(
          std::make_unique<hv::Node>(sim, "n" + std::to_string(i), 4));
      hcas.push_back(&fabric->add_node(*nodes.back()));
    }
    for (int i = 0; i < senders; ++i) {
      const auto s = static_cast<std::size_t>(i);
      sources.push_back(make_endpoint_on(*nodes[s + 1], *hcas[s + 1],
                                         "src" + std::to_string(i)));
      sinks.push_back(make_endpoint_on(*nodes[0], *hcas[0],
                                       "dst" + std::to_string(i)));
      Fabric::connect(*sources.back().qp, *sinks.back().qp);
    }
  }

  [[nodiscard]] Channel& congested_port() { return hcas[0]->downlink(); }
};

Task send_many(Endpoint& src, const Endpoint& dst, int count,
               std::uint32_t length, std::vector<Cqe>& cqes,
               std::vector<SimTime>& times) {
  for (int i = 0; i < count; ++i) {
    SendWr wr;
    wr.wr_id = static_cast<std::uint64_t>(i) + 1;
    wr.opcode = Opcode::kRdmaWrite;
    wr.local_addr = src.buf;
    wr.lkey = src.mr.lkey;
    wr.length = length;
    wr.remote_addr = dst.buf;
    wr.rkey = dst.mr.rkey;
    co_await src.verbs->post_send(*src.qp, wr);
    cqes.push_back(co_await src.verbs->next_cqe(*src.send_cq));
    times.push_back(src.domain->vcpu().simulation().now());
  }
}

struct RunResult {
  std::vector<std::vector<SimTime>> times;
  std::uint64_t drops = 0;
  std::uint64_t pauses = 0;
  bool all_success = true;
};

RunResult run_incast(int senders, int msgs, std::uint32_t bytes,
                     const CongestionConfig& congestion) {
  IncastWorld w(senders, congestion);
  std::vector<std::vector<Cqe>> cqes(static_cast<std::size_t>(senders));
  RunResult r;
  r.times.resize(static_cast<std::size_t>(senders));
  for (int i = 0; i < senders; ++i) {
    const auto s = static_cast<std::size_t>(i);
    w.sim.spawn(send_many(w.sources[s], w.sinks[s], msgs, bytes, cqes[s],
                          r.times[s]));
  }
  w.sim.run();
  for (const auto& per_flow : cqes) {
    for (const auto& cqe : per_flow) {
      r.all_success =
          r.all_success &&
          cqe.status == static_cast<std::uint8_t>(CqeStatus::kSuccess);
    }
  }
  r.drops = w.sim.metrics().counter("fabric.buf_drops").value();
  r.pauses = w.sim.metrics().counter("fabric.pfc_pauses").value();
  return r;
}

CongestionConfig pfc_config(std::uint32_t buffer) {
  CongestionConfig c;
  c.buffer_pkts = buffer;
  c.pfc = true;
  return c;
}

// --- configuration validation ------------------------------------------------

TEST(Pfc, ConfigValidationRejectsNonsense) {
  sim::Simulation sim;
  {
    FabricConfig cfg = testing::test_config();
    cfg.pfc_enabled = true;  // no finite buffers anywhere
    EXPECT_THROW(Fabric(sim, cfg), std::invalid_argument);
  }
  {
    FabricConfig cfg = testing::test_config();
    cfg.port_buffer_pkts = 16;
    cfg.pfc_enabled = true;
    cfg.pfc_xon = 0.8;  // xon above xoff: the port could never resume
    cfg.pfc_xoff = 0.6;
    EXPECT_THROW(Fabric(sim, cfg), std::invalid_argument);
  }
  {
    FabricConfig cfg = testing::test_config();
    cfg.switch_pool_bytes = 64 * 1024;
    cfg.pool_alpha = 0.0;
    EXPECT_THROW(Fabric(sim, cfg), std::invalid_argument);
  }
}

// --- pause/resume semantics --------------------------------------------------

TEST(Pfc, PauseGatesTheWholeChannelAndResumeRestartsIt) {
  testing::TwoNodeWorld world;
  auto [a, b] = world.make_connected_pair();
  // Pause A's uplink before any traffic: the post goes through (doorbells
  // are not paused) but nothing may reach the wire.
  Channel& up = world.hca_a->uplink();
  up.pause_vls(0b1);
  up.pause_vls(0b1);  // two downstream ports pause the same feeder
  std::vector<Cqe> cqes;
  std::vector<SimTime> times;
  world.sim.spawn(send_many(a, b, 1, 16 * 1024, cqes, times));
  world.sim.run_until(sim::kMillisecond);
  EXPECT_TRUE(up.paused());
  EXPECT_EQ(up.packets_sent(), 0u);
  EXPECT_TRUE(cqes.empty());
  // One resume is not enough: the reference count must reach zero.
  up.resume_vls(0b1);
  world.sim.run_until(2 * sim::kMillisecond);
  EXPECT_EQ(up.packets_sent(), 0u);
  up.resume_vls(0b1);
  world.sim.run();
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].status, static_cast<std::uint8_t>(CqeStatus::kSuccess));
  EXPECT_GT(up.packets_sent(), 0u);
  // The paused interval is accounted (two spells: ~1 ms and ~1 ms more).
  EXPECT_GE(up.paused_time(), 2 * sim::kMillisecond - 2);
}

// --- losslessness ------------------------------------------------------------

TEST(Pfc, IncastIsLosslessWhereTaildropLosesPackets) {
  // Buffer sizing: XOFF fires at 60% of 32 packets, leaving 12.8 packets of
  // headroom — enough for the worst case of 6 feeders each landing one
  // in-flight packet plus one more started during the 200 ns pause
  // propagation. PFC is only lossless when that headroom is provisioned
  // (exactly as on real switches); DESIGN.md spells the bound out.
  CongestionConfig taildrop;
  taildrop.buffer_pkts = 32;
  const auto lossy = run_incast(6, 30, 16 * 1024, taildrop);
  ASSERT_TRUE(lossy.all_success);
  ASSERT_GT(lossy.drops, 0u);  // the load genuinely overruns 32 packets

  const auto lossless = run_incast(6, 30, 16 * 1024, pfc_config(32));
  EXPECT_TRUE(lossless.all_success);
  EXPECT_EQ(lossless.drops, 0u);  // the acceptance headline: zero drops
  EXPECT_GT(lossless.pauses, 0u);
}

TEST(Pfc, PausesAccountPausedTimeOnTheFeeders) {
  // 24-packet buffer: XOFF headroom 9.6 packets >= 4 feeders x 2 in-flight.
  CongestionConfig c = pfc_config(24);
  IncastWorld w(4, c);
  std::vector<std::vector<Cqe>> cqes(4);
  std::vector<std::vector<SimTime>> times(4);
  for (int i = 0; i < 4; ++i) {
    const auto s = static_cast<std::size_t>(i);
    w.sim.spawn(send_many(w.sources[s], w.sinks[s], 30, 16 * 1024, cqes[s],
                          times[s]));
  }
  w.sim.run();
  EXPECT_GT(w.congested_port().pauses_sent(), 0u);
  // The hot port paused its feeders: every sender's host uplink shows
  // accumulated paused time, and every pause spell ended (nothing stuck).
  for (std::size_t i = 1; i < w.hcas.size(); ++i) {
    EXPECT_GT(w.hcas[i]->uplink().paused_time(), 0u) << "uplink " << i;
    EXPECT_FALSE(w.hcas[i]->uplink().paused()) << "uplink " << i;
  }
  EXPECT_EQ(w.sim.metrics().counter("fabric.buf_drops").value(), 0u);
  // The per-spell duration histogram saw every completed spell.
  EXPECT_GT(
      w.sim.metrics().histogram("fabric.pause_duration_ns").count(), 0u);
}

// --- shared switch pool ------------------------------------------------------

TEST(Pfc, SharedPoolDynamicThresholdScalesWithAlpha) {
  // Choudhury-Hahne: a single hot port converges to alpha/(1+alpha) of the
  // pool. A generous alpha must let the port hold strictly more backlog than
  // a stingy one, and neither may exceed its fixed point (plus one packet).
  const auto peak_backlog = [](double alpha) {
    CongestionConfig c;
    c.pool_bytes = 64 * 1024;
    c.pool_alpha = alpha;
    IncastWorld w(6, c);
    std::vector<std::vector<Cqe>> cqes(6);
    std::vector<std::vector<SimTime>> times(6);
    for (int i = 0; i < 6; ++i) {
      const auto s = static_cast<std::size_t>(i);
      w.sim.spawn(send_many(w.sources[s], w.sinks[s], 30, 16 * 1024, cqes[s],
                            times[s]));
    }
    std::uint64_t peak = 0;
    for (int tick = 1; tick <= 400; ++tick) {
      w.sim.run_until(static_cast<SimTime>(tick) * 10 * sim::kMicrosecond);
      peak = std::max(peak, w.congested_port().backlog_bytes());
    }
    w.sim.run();
    return std::pair{peak, w.sim.metrics().counter("fabric.buf_drops").value()};
  };
  const auto [stingy_peak, stingy_drops] = peak_backlog(0.25);
  const auto [generous_peak, generous_drops] = peak_backlog(4.0);
  EXPECT_GT(generous_peak, stingy_peak);
  // Fixed points: alpha/(1+alpha) of 64 KiB, with one MTU of slack for the
  // packet that was admitted right at the threshold.
  const auto bound = [](double alpha) {
    return static_cast<std::uint64_t>(alpha / (1.0 + alpha) * 64.0 * 1024.0) +
           1024;
  };
  EXPECT_LE(stingy_peak, bound(0.25));
  EXPECT_LE(generous_peak, bound(4.0));
  // Both configurations overload the pool hard enough to shed load.
  EXPECT_GT(stingy_drops, 0u);
  EXPECT_GT(generous_drops, 0u);
}

TEST(Pfc, SharedPoolWithPfcStaysLossless) {
  // With alpha=1 the hot port XOFFs at occupancy 0.375*pool and would only
  // overflow at 0.5*pool: the 0.125*pool headroom (16 KiB here) covers the
  // worst-case in-flight packets from 6 feeders.
  CongestionConfig c;
  c.pool_bytes = 128 * 1024;
  c.pool_alpha = 1.0;
  c.pfc = true;
  const auto r = run_incast(6, 30, 16 * 1024, c);
  EXPECT_TRUE(r.all_success);
  EXPECT_EQ(r.drops, 0u);
  EXPECT_GT(r.pauses, 0u);
}

// --- byte-based occupancy ----------------------------------------------------

TEST(Pfc, ByteModeScalesEcnThresholdsAndAccountsBytes) {
  CongestionConfig c;
  c.buffer_bytes = 32 * 1024;  // 32 packets' worth at the 1 KiB MTU
  c.ecn_kmin = 4;              // scaled to 4 KiB / 16 KiB internally
  c.ecn_kmax = 16;
  IncastWorld w(6, c);
  std::vector<std::vector<Cqe>> cqes(6);
  std::vector<std::vector<SimTime>> times(6);
  for (int i = 0; i < 6; ++i) {
    const auto s = static_cast<std::size_t>(i);
    w.sim.spawn(send_many(w.sources[s], w.sinks[s], 30, 16 * 1024, cqes[s],
                          times[s]));
  }
  w.sim.run();
  EXPECT_GT(w.congested_port().ecn_marks(), 0u);
  // Byte mode keeps its own histogram; the packet-mode one must stay empty.
  EXPECT_GT(
      w.sim.metrics().histogram("fabric.port_occupancy_bytes").count(), 0u);
  EXPECT_EQ(
      w.sim.metrics().histogram("fabric.port_occupancy_pkts").count(), 0u);
  for (const auto& per_flow : cqes) {
    for (const auto& cqe : per_flow) {
      EXPECT_EQ(cqe.status, static_cast<std::uint8_t>(CqeStatus::kSuccess));
    }
  }
}

// --- fat-tree pause propagation ----------------------------------------------

TEST(Pfc, PauseTreePropagatesAcrossTheFatTreeAndGatesTheVictim) {
  // Aggressors n1..n3 (leaf 0) incast into n4 (leaf 1) while a victim flow
  // n0 -> n5 shares only the — deliberately oversized — trunks with them.
  // The pause tree must grow backwards from n4's downlink through the spine
  // to leaf 0 and gate the victim's host uplink (head-of-line blocking),
  // while the whole fabric stays lossless.
  cluster::ClusterConfig cc;
  cc.nodes = 8;
  cc.topology = cluster::TopologyKind::kFatTree;
  cc.leaf_width = 4;
  cc.spines = 1;
  cc.trunk_bandwidth_scale = 8.0;
  cc.fabric.link_bytes_per_sec = 1e9;
  cc.fabric.port_buffer_pkts = 16;
  cc.fabric.pfc_enabled = true;
  cluster::Cluster cl(cc);
  auto& sim = cl.sim();

  std::vector<Endpoint> sources, sinks;
  std::vector<std::vector<Cqe>> cqes(4);
  std::vector<std::vector<SimTime>> times(4);
  // Three aggressors into n4; element 3 is the victim pair n0 -> n5. Create
  // all endpoints before spawning (coroutines keep references).
  for (std::uint32_t i = 1; i <= 3; ++i) {
    sources.push_back(make_endpoint_on(cl.node(i), cl.hca(i),
                                       "agg" + std::to_string(i)));
    sinks.push_back(make_endpoint_on(cl.node(4), cl.hca(4),
                                     "sink" + std::to_string(i)));
    Fabric::connect(*sources.back().qp, *sinks.back().qp);
  }
  sources.push_back(make_endpoint_on(cl.node(0), cl.hca(0), "victim"));
  sinks.push_back(make_endpoint_on(cl.node(5), cl.hca(5), "victim_sink"));
  Fabric::connect(*sources.back().qp, *sinks.back().qp);
  for (std::size_t i = 0; i < 4; ++i) {
    sim.spawn(send_many(sources[i], sinks[i], 40, 16 * 1024, cqes[i],
                        times[i]));
  }
  sim.run();
  for (const auto& per_flow : cqes) {
    ASSERT_EQ(per_flow.size(), 40u);
    for (const auto& cqe : per_flow) {
      EXPECT_EQ(cqe.status, static_cast<std::uint8_t>(CqeStatus::kSuccess));
    }
  }
  // Lossless end to end, with real pause traffic.
  EXPECT_EQ(sim.metrics().counter("fabric.buf_drops").value(), 0u);
  EXPECT_GT(sim.metrics().counter("fabric.pfc_pauses").value(), 0u);
  // The hot downlink paused; the pause tree reached the victim's uplink on
  // the *other* leaf even though the victim never sends to the hot port.
  EXPECT_GT(cl.hca(4).downlink().pauses_sent(), 0u);
  EXPECT_GT(cl.hca(0).uplink().paused_time(), 0u);
  // And nothing is left paused once the load is gone.
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(cl.hca(i).uplink().paused()) << "uplink " << i;
    EXPECT_FALSE(cl.hca(i).downlink().paused()) << "downlink " << i;
  }
}

// --- determinism -------------------------------------------------------------

TEST(Pfc, PausedIncastIsDeterministic) {
  const auto once = [] { return run_incast(6, 30, 16 * 1024, pfc_config(16)); };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.times, b.times);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.pauses, b.pauses);
}

}  // namespace
}  // namespace resex::fabric
