// resex::routing coverage: the dense next-hop table compiles the build-phase
// candidate sets into flat spans (and invalidates on topology edits); the
// ECMP hash is flow-consistent (one flow, one path, per-QP in-order
// completion) yet spreads distinct QPs across the candidate trunks; adaptive
// placement spreads concurrent flows by load; lane shifts stay within the
// configured lane count, are validated against missing qos headroom, and
// un-deadlock the striped-ring PFC all-reduce; the runner flags parse and
// demand their prerequisites; and every routing mode stays byte-identical
// for any --jobs value.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "../fabric/fabric_fixture.hpp"
#include "cluster/topology.hpp"
#include "collective/collective.hpp"
#include "qos/config.hpp"
#include "routing/config.hpp"
#include "routing/table.hpp"
#include "runner/runner.hpp"
#include "sim/rng.hpp"

namespace resex::fabric {
namespace {

using sim::SimTime;
using sim::Task;
using testing::make_endpoint_on;

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

// --- dense next-hop table ----------------------------------------------------

TEST(RoutingTable, CompilesBuildCandidatesIntoDenseSpans) {
  int port_a = 0, port_b = 0, port_c = 0;
  routing::NextHopTable<int> t;
  t.add(0, 2, {10, &port_a});
  t.add(0, 2, {11, &port_b});
  t.add(0, 2, {10, &port_a});  // duplicate via: dropped
  t.set(1, 2, {12, &port_c});
  EXPECT_TRUE(t.has(0, 2));
  EXPECT_FALSE(t.has(2, 0));
  const auto cands = t.candidates(0, 2);
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0].via, 10u);
  EXPECT_EQ(cands[1].via, 11u);

  t.compile(3);
  ASSERT_TRUE(t.compiled());
  const auto span = t.lookup(0, 2);
  ASSERT_EQ(span.count, 2u);
  EXPECT_EQ(span[0].via, 10u);
  EXPECT_EQ(span[0].port, &port_a);
  EXPECT_EQ(span[1].via, 11u);
  const auto single = t.lookup(1, 2);
  ASSERT_EQ(single.count, 1u);
  EXPECT_EQ(single[0].via, 12u);
  EXPECT_EQ(t.lookup(2, 0).count, 0u);
  EXPECT_EQ(t.lookup(1, 0).count, 0u);
}

TEST(RoutingTable, SetReplacesAndInvalidateForcesRecompile) {
  int port_a = 0, port_b = 0;
  routing::NextHopTable<int> t;
  t.add(0, 1, {5, &port_a});
  t.compile(2);
  ASSERT_TRUE(t.compiled());
  t.invalidate();
  EXPECT_FALSE(t.compiled());
  t.set(0, 1, {6, &port_b});  // replace the candidate set wholesale
  t.compile(2);
  const auto span = t.lookup(0, 1);
  ASSERT_EQ(span.count, 1u);
  EXPECT_EQ(span[0].via, 6u);
}

// --- ECMP hash ---------------------------------------------------------------

TEST(RoutingHash, CoversAllBucketsAndSeedDecorrelates) {
  constexpr std::uint64_t kCandidates = 4;
  std::set<std::uint64_t> buckets;
  bool seed_changed_some_flow = false;
  for (std::uint32_t qp = 0; qp < 64; ++qp) {
    const auto a = routing::ecmp_hash(qp, 1, 1) % kCandidates;
    buckets.insert(a);
    // Purity: the same flow identity always lands on the same index.
    EXPECT_EQ(a, routing::ecmp_hash(qp, 1, 1) % kCandidates);
    if (a != routing::ecmp_hash(qp, 1, 99) % kCandidates) {
      seed_changed_some_flow = true;
    }
  }
  EXPECT_EQ(buckets.size(), kCandidates);
  EXPECT_TRUE(seed_changed_some_flow);
}

// --- fat-tree multipath ------------------------------------------------------

/// 2 leaves x 4 hosts, `spines` parallel trunks, `senders` cross-leaf flows
/// (node i -> node 4 + i % 4). Returns per-directed-trunk bytes in
/// for_each_trunk order.
struct SpreadResult {
  std::vector<std::uint64_t> trunk_bytes;
  std::vector<std::vector<Cqe>> cqes;
  std::uint64_t rehash = 0;
  [[nodiscard]] std::size_t trunks_used() const {
    return static_cast<std::size_t>(std::count_if(
        trunk_bytes.begin(), trunk_bytes.end(),
        [](std::uint64_t b) { return b > 0; }));
  }
};

SpreadResult run_spread(routing::RouteMode mode, std::uint32_t senders,
                        int writes_per_sender = 8) {
  cluster::ClusterConfig cc;
  cc.nodes = 8;
  cc.topology = cluster::TopologyKind::kFatTree;
  cc.leaf_width = 4;
  cc.spines = 4;
  cc.trunk_bandwidth_scale = 1.0;
  cc.fabric.link_bytes_per_sec = 1e9;
  cc.fabric.routing.mode = mode;
  cluster::Cluster cl(cc);
  auto& sim = cl.sim();

  std::vector<Endpoint> sources, sinks;
  SpreadResult r;
  r.cqes.resize(senders);
  std::vector<std::vector<SimTime>> times(senders);
  for (std::uint32_t i = 0; i < senders; ++i) {
    const std::uint32_t src = i % 4;
    const std::uint32_t dst = 4 + i % 4;
    sources.push_back(make_endpoint_on(cl.node(src), cl.hca(src),
                                       "src" + std::to_string(i)));
    sinks.push_back(make_endpoint_on(cl.node(dst), cl.hca(dst),
                                     "dst" + std::to_string(i)));
    Fabric::connect(*sources.back().qp, *sinks.back().qp);
  }
  for (std::uint32_t i = 0; i < senders; ++i) {
    sim.spawn(send_many(sources[i], sinks[i], writes_per_sender, 32 * 1024,
                        r.cqes[i], times[i]));
  }
  sim.run();
  cl.fabric().for_each_trunk([&](std::uint32_t, std::uint32_t, Channel& ch) {
    r.trunk_bytes.push_back(ch.bytes_sent());
  });
  r.rehash = sim.metrics().counter("fabric.route_rehash").value();
  return r;
}

TEST(RoutingEcmp, OneFlowRidesExactlyOnePath) {
  const SpreadResult r = run_spread(routing::RouteMode::kEcmp, 1);
  ASSERT_EQ(r.cqes[0].size(), 8u);
  for (const auto& cqe : r.cqes[0]) {
    EXPECT_EQ(cqe.status, static_cast<std::uint8_t>(CqeStatus::kSuccess));
  }
  // Flow consistency: one QP hashes to one spine, so exactly one uplink and
  // one downlink carried its bytes — never a packet-level spray.
  EXPECT_EQ(r.trunks_used(), 2u);
}

TEST(RoutingEcmp, PerQpCompletionStaysInOrder) {
  const SpreadResult r = run_spread(routing::RouteMode::kEcmp, 8);
  for (const auto& flow : r.cqes) {
    ASSERT_EQ(flow.size(), 8u);
    for (std::size_t i = 0; i < flow.size(); ++i) {
      EXPECT_EQ(flow[i].status,
                static_cast<std::uint8_t>(CqeStatus::kSuccess));
      // wr_id 1..N complete in posting order: the single-path guarantee.
      EXPECT_EQ(flow[i].wr_id, i + 1);
    }
  }
}

TEST(RoutingSpread, MultipathUsesMoreTrunksThanStatic) {
  const SpreadResult st = run_spread(routing::RouteMode::kStatic, 8);
  const SpreadResult ec = run_spread(routing::RouteMode::kEcmp, 8);
  const SpreadResult ad = run_spread(routing::RouteMode::kAdaptive, 8);
  // Static pins all eight flows of one leaf pair onto one spine: one uplink
  // + one downlink per direction-pair actually used.
  EXPECT_EQ(st.trunks_used(), 2u);
  EXPECT_EQ(st.rehash, 0u);
  // ECMP hashes eight QPs across four spines; adaptive places them by load.
  EXPECT_GT(ec.trunks_used(), 2u);
  EXPECT_GT(ad.trunks_used(), 2u);
  EXPECT_GE(ad.trunks_used(), ec.trunks_used());
}

// --- lane shifts -------------------------------------------------------------

cluster::ClusterConfig striped_config(std::uint32_t nodes, bool vl_shift) {
  cluster::ClusterConfig cc;
  cc.nodes = nodes;
  cc.topology = cluster::TopologyKind::kFatTree;
  cc.leaf_width = (nodes + 1) / 2;
  cc.spines = 1;
  cc.trunk_bandwidth_scale = 1.0;
  if (vl_shift) {
    qos::QosConfig q;
    q.enabled = true;
    q.apply(cc.fabric);
    cc.fabric.routing.vl_shift = true;
    cc.fabric.reserve_shift_lane();
  }
  return cc;
}

TEST(RoutingVlShift, ShiftedLaneNeverExceedsConfiguredLanes) {
  cluster::Cluster cl(striped_config(4, true));
  const auto& fab = cl.fabric();
  const auto num_vls = fab.config().num_vls;
  ASSERT_EQ(num_vls, 3u);  // 2 qos lanes + the reserved shift lane
  for (std::uint32_t src = 0; src < 4; ++src) {
    for (std::uint32_t dst = 0; dst < 4; ++dst) {
      for (std::uint8_t vl = 0; vl < num_vls; ++vl) {
        const auto shifted =
            fab.shifted_vl(vl, cl.hca(src).id(), cl.hca(dst).id());
        EXPECT_LT(shifted, num_vls);
        EXPECT_GE(shifted, vl);
      }
    }
  }
  // Wrap-direction pairs (higher switch -> lower switch) shift one lane up;
  // forward-direction and same-leaf pairs stay put.
  EXPECT_EQ(fab.shifted_vl(1, cl.hca(2).id(), cl.hca(0).id()), 2u);
  EXPECT_EQ(fab.shifted_vl(1, cl.hca(0).id(), cl.hca(2).id()), 1u);
  EXPECT_EQ(fab.shifted_vl(1, cl.hca(0).id(), cl.hca(1).id()), 1u);
  EXPECT_EQ(fab.shifted_vl(2, cl.hca(2).id(), cl.hca(0).id()), 2u);  // clamp
}

TEST(RoutingVlShift, RequiresQosLaneHeadroom) {
  sim::Simulation sim;
  FabricConfig cfg = testing::test_config();
  cfg.routing.vl_shift = true;  // no qos lanes: nowhere to shift to
  EXPECT_THROW(Fabric(sim, cfg), std::invalid_argument);
}

/// The fig_allreduce deadlock scenario: ranks striped across two leaves over
/// a single 1x trunk, finite buffers, PFC on, one 4MiB ring all-reduce.
struct RingResult {
  bool ok = false;
  std::uint64_t drops = 0;
  std::uint64_t retx = 0;
};

RingResult run_striped_ring(bool vl_shift) {
  constexpr std::uint32_t kRanks = 4;
  cluster::ClusterConfig cc = striped_config(kRanks, vl_shift);
  cc.fabric.port_buffer_pkts = 64;
  cc.fabric.pfc_enabled = true;
  cluster::Cluster cl(cc);
  auto& sim = cl.sim();

  collective::CollectiveConfig coll;
  coll.ranks = kRanks;
  coll.payload_bytes = 4u << 20;
  coll.chunk_bytes = 256 * 1024;
  coll.algorithm = collective::Algorithm::kRingAllReduce;
  std::vector<collective::RankHome> homes(kRanks);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    const std::uint32_t node = (r % 2) * cc.leaf_width + r / 2;
    homes[r] = collective::RankHome{&cl.node(node), &cl.hca(node)};
  }
  collective::CollectiveGroup group(sim, std::move(homes), coll);
  group.start();
  sim.run_until(2'000 * sim::kMillisecond);

  RingResult r;
  r.ok = group.done() && group.result().ok;
  r.drops = sim.metrics().counter("fabric.buf_drops").value();
  r.retx = sim.metrics().counter("fabric.retransmits").value();
  return r;
}

TEST(RoutingVlShift, UnDeadlocksTheStripedRingAllReduce) {
  const RingResult plain = run_striped_ring(false);
  const RingResult shifted = run_striped_ring(true);
  // Plain PFC: the cyclic ring route turns per-hop pauses into a cyclic
  // buffer dependency; the RC retry budget converts the deadlock into an
  // abort (documented in EXPERIMENTS.md).
  EXPECT_FALSE(plain.ok);
  EXPECT_GT(plain.retx, 0u);
  // Lane shifts make the per-lane dependency graph acyclic: the same ring
  // completes lossless.
  EXPECT_TRUE(shifted.ok);
  EXPECT_EQ(shifted.drops, 0u);
  EXPECT_EQ(shifted.retx, 0u);
}

// --- runner flags ------------------------------------------------------------

runner::RunnerOptions parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return runner::parse_options(static_cast<int>(argv.size()), argv.data());
}

TEST(RoutingFlags, ParseAndDemandPrerequisites) {
  EXPECT_EQ(parse({"--routing", "ecmp"}).routing.mode,
            routing::RouteMode::kEcmp);
  EXPECT_EQ(parse({"--routing=adaptive"}).routing.mode,
            routing::RouteMode::kAdaptive);
  EXPECT_FALSE(parse({}).routing_set());
  const auto opts = parse({"--routing", "ecmp", "--ecmp-seed", "7"});
  EXPECT_EQ(opts.routing.ecmp_seed, 7u);
  const auto shift = parse({"--qos", "--vl-shift"});
  EXPECT_TRUE(shift.routing.vl_shift);
  EXPECT_TRUE(shift.routing_set());
  // --ecmp-seed needs a multipath mode; --vl-shift needs --qos lanes.
  EXPECT_THROW(parse({"--ecmp-seed", "7"}), std::invalid_argument);
  EXPECT_THROW(parse({"--routing", "static", "--ecmp-seed", "7"}),
               std::invalid_argument);
  EXPECT_THROW(parse({"--vl-shift"}), std::invalid_argument);
  EXPECT_THROW(parse({"--routing", "bogus"}), std::invalid_argument);
}

// --- determinism -------------------------------------------------------------

/// 4 cross-leaf flows through the multipath fat-tree; payload length varies
/// with the seed so replicates genuinely differ. Returns completion times,
/// per-trunk bytes and the rehash counter.
std::vector<double> routing_trial(routing::RouteMode mode,
                                  std::uint64_t seed) {
  cluster::ClusterConfig cc;
  cc.nodes = 4;
  cc.topology = cluster::TopologyKind::kFatTree;
  cc.leaf_width = 2;
  cc.spines = 2;
  cc.trunk_bandwidth_scale = 1.0;
  cc.fabric.link_bytes_per_sec = 1e9;
  cc.fabric.routing.mode = mode;
  cluster::Cluster cl(cc);
  auto& sim = cl.sim();

  std::vector<Endpoint> sources, sinks;
  std::vector<std::vector<Cqe>> cqes(4);
  std::vector<std::vector<SimTime>> times(4);
  const auto bytes = static_cast<std::uint32_t>(16 * 1024 + (seed % 4) * 1024);
  for (std::uint32_t i = 0; i < 4; ++i) {
    const std::uint32_t src = i % 2;          // leaf 0
    const std::uint32_t dst = 2 + i % 2;      // leaf 1
    sources.push_back(make_endpoint_on(cl.node(src), cl.hca(src),
                                       "src" + std::to_string(i)));
    sinks.push_back(make_endpoint_on(cl.node(dst), cl.hca(dst),
                                     "dst" + std::to_string(i)));
    Fabric::connect(*sources.back().qp, *sinks.back().qp);
  }
  for (std::size_t i = 0; i < 4; ++i) {
    sim.spawn(send_many(sources[i], sinks[i], 10, bytes, cqes[i], times[i]));
  }
  sim.run();

  std::vector<double> out;
  for (const auto& t : times) {
    out.push_back(t.empty() ? 0.0 : static_cast<double>(t.back()));
  }
  cl.fabric().for_each_trunk([&](std::uint32_t, std::uint32_t, Channel& ch) {
    out.push_back(static_cast<double>(ch.bytes_sent()));
  });
  out.push_back(static_cast<double>(
      sim.metrics().counter("fabric.route_rehash").value()));
  return out;
}

TEST(RoutingDeterminism, EveryModeIsByteIdenticalAcrossJobs) {
  for (const auto mode :
       {routing::RouteMode::kStatic, routing::RouteMode::kEcmp,
        routing::RouteMode::kAdaptive}) {
    std::vector<runner::GenericPoint> points;
    for (std::uint64_t p = 0; p < 3; ++p) {
      runner::GenericPoint pt;
      pt.label = "routing-p" + std::to_string(p);
      pt.seed = 900 + p;
      pt.run = [mode](const runner::TrialContext& ctx) {
        return routing_trial(mode, ctx.seed);
      };
      points.push_back(std::move(pt));
    }
    runner::RunnerOptions serial;
    serial.jobs = 1;
    serial.seeds = 2;
    runner::RunnerOptions wide = serial;
    wide.jobs = 4;
    const auto a = runner::run_trials(points, serial);
    const auto b = runner::run_trials(points, wide);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].trials.size(), b[i].trials.size());
      for (std::size_t r = 0; r < a[i].trials.size(); ++r) {
        ASSERT_EQ(a[i].trials[r].values, b[i].trials[r].values)
            << "mode " << routing::to_string(mode) << " point " << i;
      }
    }
  }
}

}  // namespace
}  // namespace resex::fabric
