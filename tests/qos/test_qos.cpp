// resex::qos coverage: the two-table VL arbiter is work-conserving and
// starvation-free under arbitrary weight tables; SLs ride the wire and pick
// the configured lane; per-class pause frames gate one lane without ever
// delaying another; a two-class fat-tree incast stays lossless while the
// latency lane never sees a pause; DCQCN rate episodes stay keyed per QP
// (marking one QP never caps its same-path neighbour); the runner flags
// parse and demand --qos; and the whole qos datapath is byte-identical for
// any --jobs value.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "../fabric/fabric_fixture.hpp"
#include "cluster/topology.hpp"
#include "congestion/dcqcn.hpp"
#include "qos/arbiter.hpp"
#include "qos/config.hpp"
#include "runner/runner.hpp"
#include "sim/rng.hpp"

namespace resex::fabric {
namespace {

using sim::SimTime;
using sim::Task;
using testing::Endpoint;
using testing::make_endpoint_on;

FabricConfig qos_config(std::uint32_t buffer_pkts = 0, bool pfc = false) {
  FabricConfig cfg = testing::test_config();
  cfg.port_buffer_pkts = buffer_pkts;
  cfg.pfc_enabled = pfc;
  qos::QosConfig q;
  q.enabled = true;
  q.apply(cfg);
  return cfg;
}

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

// --- arbiter properties ------------------------------------------------------

TEST(QosArbiter, EmptyOrOutOfRangeMaskReturnsSentinel) {
  qos::VlArbiter one;  // default: one lane
  EXPECT_EQ(one.pick(0), qos::kMaxVls);
  // Lanes outside num_vls are clipped before arbitration.
  EXPECT_EQ(one.pick(0b1110), qos::kMaxVls);
  EXPECT_EQ(one.pick(0b0001), 0);
}

TEST(QosArbiter, WorkConservingUnderRandomTables) {
  // Property: for any table configuration, a non-empty eligible mask yields
  // a member of that mask — no grant is ever wasted on an empty lane and no
  // backlogged port ever idles.
  sim::Rng rng(sim::derive(0xab5, 1));
  for (int trial = 0; trial < 200; ++trial) {
    qos::VlArbiterConfig cfg;
    cfg.num_vls =
        static_cast<std::uint8_t>(1 + rng.uniform_u64(qos::kMaxVls));
    cfg.high_mask = static_cast<std::uint8_t>(
        rng.uniform_u64(1u << cfg.num_vls));
    cfg.hi_limit = static_cast<std::uint32_t>(rng.uniform_u64(5));
    for (auto& w : cfg.weight) {
      w = static_cast<std::uint32_t>(rng.uniform_u64(8));  // 0 allowed (=1)
    }
    qos::VlArbiter arb(cfg);
    const auto lanes = static_cast<std::uint8_t>((1u << cfg.num_vls) - 1u);
    for (int i = 0; i < 100; ++i) {
      const auto mask = static_cast<std::uint8_t>(
          1 + rng.uniform_u64(lanes));  // non-empty within num_vls
      const std::uint8_t vl = arb.pick(mask);
      ASSERT_LT(vl, cfg.num_vls) << "trial " << trial;
      ASSERT_NE(mask & (1u << vl), 0) << "trial " << trial;
    }
  }
}

TEST(QosArbiter, HiLimitKeepsTheLowTableStarvationFree) {
  // Both lanes saturated: the high lane wins bursts of at most hi_limit and
  // the low lane is guaranteed 1 grant per hi_limit+1 — never starved.
  qos::VlArbiterConfig cfg;
  cfg.num_vls = 2;
  cfg.high_mask = 0x1;
  cfg.hi_limit = 4;
  qos::VlArbiter arb(cfg);
  std::array<int, 2> grants{};
  int low_wait = 0, worst_wait = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::uint8_t vl = arb.pick(0b11);
    ++grants[vl];
    low_wait = vl == 1 ? 0 : low_wait + 1;
    worst_wait = std::max(worst_wait, low_wait);
  }
  EXPECT_EQ(grants[0] + grants[1], 1000);
  EXPECT_EQ(grants[1], 1000 / 5);  // exactly one low grant per 4 high ones
  EXPECT_LE(worst_wait, 4);

  // Strict priority (hi_limit 0) is the documented opposite: total
  // starvation while the high lane stays backlogged.
  cfg.hi_limit = 0;
  qos::VlArbiter strict(cfg);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(strict.pick(0b11), 0);
  EXPECT_EQ(strict.pick(0b10), 1);  // work conservation still holds
}

TEST(QosArbiter, WrrSharesATableByWeight) {
  qos::VlArbiterConfig cfg;
  cfg.num_vls = 2;
  cfg.high_mask = 0;  // both lanes in the low table
  cfg.weight = {3, 1, 1, 1};
  qos::VlArbiter arb(cfg);
  std::array<int, 2> grants{};
  for (int i = 0; i < 400; ++i) ++grants[arb.pick(0b11)];
  EXPECT_EQ(grants[0], 300);
  EXPECT_EQ(grants[1], 100);
}

// --- configuration ------------------------------------------------------------

TEST(QosConfig, DefaultTwoClassApplyAndDisabledIsInert) {
  FabricConfig cfg = testing::test_config();
  qos::QosConfig q;
  q.apply(cfg);  // disabled: must not touch the fabric config
  EXPECT_FALSE(cfg.qos_enabled);
  EXPECT_EQ(cfg.num_vls, 1);
  EXPECT_EQ(cfg.vl_for_sl(qos::kBulkSl), 0);

  q.enabled = true;
  q.apply(cfg);
  EXPECT_TRUE(cfg.qos_enabled);
  EXPECT_EQ(cfg.num_vls, 2);
  EXPECT_EQ(cfg.vl_high_mask, 0x1);
  EXPECT_EQ(cfg.vl_hi_limit, 16u);
  EXPECT_EQ(cfg.vl_for_sl(qos::kLatencySl), 0);
  EXPECT_EQ(cfg.vl_for_sl(qos::kBulkSl), 1);
  // The default map clamps every higher SL onto the last lane.
  EXPECT_EQ(cfg.vl_for_sl(7), 1);
}

TEST(QosConfig, SpecParsersAcceptGoodInputAndRejectNonsense) {
  qos::QosConfig q;
  q.enabled = true;
  q.set_sl_vl_map("0:0,1:2,2:1");
  EXPECT_TRUE(q.map_set);
  EXPECT_EQ(q.num_vls, 3);  // raised to cover VL 2
  q.set_vl_weights("4,2,1");
  EXPECT_TRUE(q.weights_set);
  EXPECT_EQ(q.vl_weights[0], 4u);
  FabricConfig cfg = testing::test_config();
  q.apply(cfg);
  EXPECT_EQ(cfg.vl_for_sl(1), 2);
  EXPECT_EQ(cfg.vl_weight[1], 2u);

  qos::QosConfig bad;
  EXPECT_THROW(bad.set_sl_vl_map(""), std::invalid_argument);
  EXPECT_THROW(bad.set_sl_vl_map("0"), std::invalid_argument);
  EXPECT_THROW(bad.set_sl_vl_map("0:4"), std::invalid_argument);   // VL >= 4
  EXPECT_THROW(bad.set_sl_vl_map("16:0"), std::invalid_argument);  // SL >= 16
  EXPECT_THROW(bad.set_sl_vl_map("x:0"), std::invalid_argument);
  EXPECT_THROW(bad.set_vl_weights(""), std::invalid_argument);
  EXPECT_THROW(bad.set_vl_weights("0"), std::invalid_argument);
  EXPECT_THROW(bad.set_vl_weights("1,1,1,1,1"), std::invalid_argument);
}

TEST(QosConfig, RunnerFlagsParseAndRequireQos) {
  const char* argv[] = {"bench",        "--qos", "--sl-vl-map", "0:0,1:1,2:1",
                        "--vl-weights", "2,1",   "--vl-hi-limit", "8"};
  const auto opts = runner::parse_options(8, argv);
  ASSERT_TRUE(opts.qos_set());
  EXPECT_TRUE(opts.qos.map_set);
  EXPECT_EQ(opts.qos.vl_weights[0], 2u);
  EXPECT_EQ(opts.qos.hi_limit, 8u);

  const char* orphan[] = {"bench", "--sl-vl-map", "0:0"};
  EXPECT_THROW(runner::parse_options(3, orphan), std::invalid_argument);
  const char* bad[] = {"bench", "--qos", "--vl-weights", "0,1"};
  EXPECT_THROW(runner::parse_options(4, bad), std::invalid_argument);
}

TEST(QosConfig, FabricValidationRejectsNonsense) {
  sim::Simulation sim;
  {
    FabricConfig cfg = qos_config();
    cfg.num_vls = 0;
    EXPECT_THROW(Fabric(sim, cfg), std::invalid_argument);
  }
  {
    FabricConfig cfg = qos_config();
    cfg.num_vls = 5;  // > kMaxVls
    EXPECT_THROW(Fabric(sim, cfg), std::invalid_argument);
  }
  {
    FabricConfig cfg = qos_config();
    cfg.sl2vl[3] = 7;  // VL out of range
    EXPECT_THROW(Fabric(sim, cfg), std::invalid_argument);
  }
  {
    FabricConfig cfg = qos_config();
    cfg.vl_weight[1] = 0;
    EXPECT_THROW(Fabric(sim, cfg), std::invalid_argument);
  }
  {
    FabricConfig cfg = qos_config();
    cfg.vl_high_mask = 0x4;  // names VL 2 of 2
    EXPECT_THROW(Fabric(sim, cfg), std::invalid_argument);
  }
}

// --- SL threading -------------------------------------------------------------

TEST(QosSl, QpServiceLevelAndPerWrOverridePickTheLane) {
  testing::TwoNodeWorld world(qos_config());
  auto [a, b] = world.make_connected_pair();
  a.qp->set_service_level(qos::kBulkSl);
  Channel& up = world.hca_a->uplink();

  std::vector<Cqe> cqes;
  std::vector<SimTime> times;
  world.sim.spawn(send_many(a, b, 3, 16 * 1024, cqes, times));
  world.sim.run();
  ASSERT_EQ(cqes.size(), 3u);
  // Every data packet of the bulk QP was granted on VL 1 and none on VL 0.
  EXPECT_GT(up.vl_grants(1), 0u);
  EXPECT_EQ(up.vl_grants(0), 0u);

  // A WR-level SL overrides the QP's class for exactly that transfer.
  const std::uint64_t bulk_grants = up.vl_grants(1);
  auto send_override = [](Endpoint& src, const Endpoint& dst,
                          std::vector<Cqe>& out) -> Task {
    SendWr wr;
    wr.wr_id = 99;
    wr.opcode = Opcode::kRdmaWrite;
    wr.sl = qos::kLatencySl;
    wr.local_addr = src.buf;
    wr.lkey = src.mr.lkey;
    wr.length = 16 * 1024;
    wr.remote_addr = dst.buf;
    wr.rkey = dst.mr.rkey;
    co_await src.verbs->post_send(*src.qp, wr);
    out.push_back(co_await src.verbs->next_cqe(*src.send_cq));
  };
  std::vector<Cqe> override_cqes;
  world.sim.spawn(send_override(a, b, override_cqes));
  world.sim.run();
  ASSERT_EQ(override_cqes.size(), 1u);
  EXPECT_GT(up.vl_grants(0), 0u);
  EXPECT_EQ(up.vl_grants(1), bulk_grants);  // no new bulk grants
}

// --- per-class pause independence ---------------------------------------------

TEST(QosPfc, PausingTheBulkLaneNeverDelaysTheLatencyLane) {
  testing::TwoNodeWorld world(qos_config());
  Endpoint lat_src = world.make_endpoint(world.node_a, *world.hca_a, "lat_a");
  Endpoint lat_dst = world.make_endpoint(world.node_b, *world.hca_b, "lat_b");
  Fabric::connect(*lat_src.qp, *lat_dst.qp);
  Endpoint blk_src = world.make_endpoint(world.node_a, *world.hca_a, "blk_a");
  Endpoint blk_dst = world.make_endpoint(world.node_b, *world.hca_b, "blk_b");
  blk_src.qp->set_service_level(qos::kBulkSl);
  Fabric::connect(*blk_src.qp, *blk_dst.qp);

  Channel& up = world.hca_a->uplink();
  up.pause_vls(0b10);  // a downstream class-pause for VL 1 only
  EXPECT_TRUE(up.vl_paused(1));
  EXPECT_FALSE(up.vl_paused(0));

  std::vector<Cqe> lat_cqes, blk_cqes;
  std::vector<SimTime> lat_times, blk_times;
  world.sim.spawn(send_many(lat_src, lat_dst, 5, 16 * 1024, lat_cqes,
                            lat_times));
  world.sim.spawn(send_many(blk_src, blk_dst, 5, 16 * 1024, blk_cqes,
                            blk_times));
  world.sim.run_until(sim::kMillisecond);
  // The latency class sailed through the paused port; the bulk class moved
  // nothing.
  ASSERT_EQ(lat_cqes.size(), 5u);
  EXPECT_TRUE(blk_cqes.empty());
  EXPECT_EQ(up.vl_grants(1), 0u);
  EXPECT_GT(up.vl_grants(0), 0u);

  up.resume_vls(0b10);
  world.sim.run();
  ASSERT_EQ(blk_cqes.size(), 5u);
  // Only the bulk lane accumulated paused time, and nothing is left paused.
  EXPECT_GE(up.vl_paused_time(1), sim::kMillisecond - 2);
  EXPECT_EQ(up.vl_paused_time(0), 0u);
  EXPECT_FALSE(up.vl_paused(1));
}

TEST(QosPfc, LanePauseIsChannelPauseAndItsTimeIsTheChannelPausedTime) {
  // A lane pause is a pause of the channel: paused() sees any paused lane,
  // and paused_time() (what the paused_ns gauge reports) is the sum of the
  // lanes' paused time.
  testing::TwoNodeWorld world(qos_config());
  Channel& up = world.hca_a->uplink();
  up.pause_vls(0b10);
  world.sim.run_until(sim::kMillisecond);
  EXPECT_TRUE(up.paused());
  up.resume_vls(0b10);
  EXPECT_FALSE(up.paused());
  EXPECT_EQ(up.paused_time(), up.vl_paused_time(1));
  EXPECT_GE(up.paused_time(), sim::kMillisecond);
}

struct FatTreeResult {
  SimTime victim_done = 0;
  std::uint64_t drops = 0;
  std::uint64_t pauses = 0;
  std::array<sim::SimDuration, 2> victim_uplink_vl_paused{};
  bool all_success = true;
};

/// The pfc suite's fat-tree HoL scenario (aggressors n1..n3 -> n4, victim
/// n0 -> n5 sharing only the fat trunks), with the aggressors on the bulk SL.
FatTreeResult run_fat_tree_victim(bool qos_on) {
  cluster::ClusterConfig cc;
  cc.nodes = 8;
  cc.topology = cluster::TopologyKind::kFatTree;
  cc.leaf_width = 4;
  cc.spines = 1;
  cc.trunk_bandwidth_scale = 8.0;
  cc.fabric.link_bytes_per_sec = 1e9;
  // Headroom is provisioned per class: with 2 VLs each lane owns 16 packets
  // and XOFFs at 9.6, leaving 6.4 packets for the worst case of 3 feeders x
  // 2 in-flight — the same bound the 1-class pfc suite provisions for a
  // whole 16-packet port (DESIGN.md spells the per-class bound out).
  cc.fabric.port_buffer_pkts = 32;
  cc.fabric.pfc_enabled = true;
  if (qos_on) {
    qos::QosConfig q;
    q.enabled = true;
    q.apply(cc.fabric);
  }
  cluster::Cluster cl(cc);
  auto& sim = cl.sim();

  std::vector<Endpoint> sources, sinks;
  std::vector<std::vector<Cqe>> cqes(4);
  std::vector<std::vector<SimTime>> times(4);
  for (std::uint32_t i = 1; i <= 3; ++i) {
    sources.push_back(make_endpoint_on(cl.node(i), cl.hca(i),
                                       "agg" + std::to_string(i)));
    sources.back().qp->set_service_level(qos::kBulkSl);
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

  FatTreeResult r;
  for (const auto& per_flow : cqes) {
    r.all_success = r.all_success && per_flow.size() == 40;
    for (const auto& cqe : per_flow) {
      r.all_success =
          r.all_success &&
          cqe.status == static_cast<std::uint8_t>(CqeStatus::kSuccess);
    }
  }
  r.victim_done = times[3].empty() ? 0 : times[3].back();
  r.drops = sim.metrics().counter("fabric.buf_drops").value();
  r.pauses = sim.metrics().counter("fabric.pfc_pauses").value();
  r.victim_uplink_vl_paused = {cl.hca(0).uplink().vl_paused_time(0),
                               cl.hca(0).uplink().vl_paused_time(1)};
  return r;
}

TEST(QosPfc, TwoClassFatTreeIncastIsLosslessAndSparesTheLatencyLane) {
  const FatTreeResult one_class = run_fat_tree_victim(false);
  const FatTreeResult two_class = run_fat_tree_victim(true);
  ASSERT_TRUE(one_class.all_success);
  ASSERT_TRUE(two_class.all_success);
  // Per-class PFC keeps the lossless guarantee...
  EXPECT_EQ(two_class.drops, 0u);
  EXPECT_GT(two_class.pauses, 0u);
  // ...but the pause tree only ever names the bulk lane: the victim's
  // latency lane never spends a nanosecond XOFF'd anywhere...
  EXPECT_EQ(two_class.victim_uplink_vl_paused[0], 0u);
  // ...so the victim finishes strictly earlier than under 1-class PFC,
  // where the port-wide pause tree gates it (the fig_pfc HoL result).
  EXPECT_LT(two_class.victim_done, one_class.victim_done);
}

// --- DCQCN stays keyed per QP (regression) ------------------------------------

TEST(QosDcqcn, MarkingOneQpNeverCapsItsSamePathNeighbour) {
  // Two QPs between the same node pair share every port and — before the
  // controller was keyed by QpNum — would have shared a rate episode. Mark
  // arrivals from QP A only: QP B must keep line rate (no cap, no limiter).
  testing::TwoNodeWorld world;
  auto [a1, b1] = world.make_connected_pair();
  auto [a2, b2] = world.make_connected_pair();
  congestion::RateController rc(world.fabric);

  // A sustained mark stream (one per CNP pacing interval) holds QP A's
  // episode open — a single mark would recover and uncap within ~300 us.
  auto marker = [](sim::Simulation& sim, congestion::RateController& ctl,
                   QueuePair& qp) -> Task {
    for (int i = 0; i < 40; ++i) {
      ctl.on_marked_arrival(qp);
      co_await sim.delay(50 * sim::kMicrosecond);
    }
  };
  world.sim.spawn(marker(world.sim, rc, *a1.qp));
  world.sim.run_until(sim::kMillisecond);  // mid-episode
  EXPECT_GT(rc.cnps(), 0u);
  EXPECT_GT(rc.rate_cuts(), 0u);
  EXPECT_GT(rc.current_rate(a1.qp->num()), 0.0);
  EXPECT_EQ(rc.current_rate(a2.qp->num()), 0.0);
  Channel& up = world.hca_a->uplink();
  EXPECT_GT(up.flow_rate_limit(a1.qp->num()), 0.0);
  EXPECT_EQ(up.flow_rate_limit(a2.qp->num()), 0.0);

  // The capped neighbour still cannot leak its episode: traffic on both QPs
  // completes, and only QP A's flow stays limited afterwards.
  std::vector<Cqe> c1, c2;
  std::vector<SimTime> t1, t2;
  world.sim.spawn(send_many(a1, b1, 3, 16 * 1024, c1, t1));
  world.sim.spawn(send_many(a2, b2, 3, 16 * 1024, c2, t2));
  world.sim.run();
  EXPECT_EQ(c1.size(), 3u);
  EXPECT_EQ(c2.size(), 3u);
  EXPECT_EQ(rc.current_rate(a2.qp->num()), 0.0);
}

// --- determinism --------------------------------------------------------------

/// Mixed-class 4:1 incast (three bulk feeders, one latency feeder) through
/// one switch with per-class PFC; returns completion times and counters.
std::vector<double> qos_trial(std::uint64_t seed) {
  sim::Simulation sim;
  FabricConfig cfg = qos_config(/*buffer_pkts=*/32, /*pfc=*/true);
  Fabric fabric(sim, cfg);
  std::vector<std::unique_ptr<hv::Node>> nodes;
  std::vector<Hca*> hcas;
  for (int i = 0; i <= 4; ++i) {
    nodes.push_back(std::make_unique<hv::Node>(
        sim, "n" + std::to_string(i), 6));
    hcas.push_back(&fabric.add_node(*nodes.back()));
  }
  std::vector<Endpoint> sources, sinks;
  for (int i = 0; i < 4; ++i) {
    sources.push_back(make_endpoint_on(*nodes[static_cast<std::size_t>(i) + 1],
                                       *hcas[static_cast<std::size_t>(i) + 1],
                                       "src" + std::to_string(i)));
    if (i < 3) sources.back().qp->set_service_level(qos::kBulkSl);
    sinks.push_back(make_endpoint_on(*nodes[0], *hcas[0],
                                     "dst" + std::to_string(i)));
    Fabric::connect(*sources.back().qp, *sinks.back().qp);
  }
  const auto bytes =
      static_cast<std::uint32_t>(16 * 1024 + (seed % 4) * 1024);
  std::vector<std::vector<Cqe>> cqes(4);
  std::vector<std::vector<SimTime>> times(4);
  for (std::size_t i = 0; i < 4; ++i) {
    sim.spawn(send_many(sources[i], sinks[i], 25, bytes, cqes[i], times[i]));
  }
  sim.run();
  std::vector<double> out;
  for (const auto& t : times) {
    out.push_back(t.empty() ? 0.0 : static_cast<double>(t.back()));
  }
  const Channel& down = hcas[0]->downlink();
  out.push_back(static_cast<double>(down.vl_grants(0)));
  out.push_back(static_cast<double>(down.vl_grants(1)));
  out.push_back(sim.metrics().counter("fabric.buf_drops").value());
  out.push_back(static_cast<double>(
      sim.metrics().counter("fabric.pfc_pauses").value()));
  return out;
}

TEST(QosDeterminism, TwoClassIncastIsByteIdenticalAcrossJobs) {
  std::vector<runner::GenericPoint> points;
  for (std::uint64_t p = 0; p < 3; ++p) {
    runner::GenericPoint pt;
    pt.label = "qos-p" + std::to_string(p);
    pt.seed = 700 + p;
    pt.run = qos_trial;
    points.push_back(std::move(pt));
  }
  runner::RunnerOptions serial;
  serial.jobs = 1;
  serial.seeds = 2;
  runner::RunnerOptions wide = serial;
  wide.jobs = 4;
  const auto a = runner::run_generic(points, serial);
  const auto b = runner::run_generic(points, wide);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].trial_values, b[i].trial_values) << "point " << i;
    for (const auto& trial : a[i].trial_values) {
      // Both lanes actually carried traffic in every trial.
      EXPECT_GT(trial[4], 0.0);
      EXPECT_GT(trial[5], 0.0);
    }
  }
}

}  // namespace
}  // namespace resex::fabric
