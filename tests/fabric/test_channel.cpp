#include "fabric/channel.hpp"

#include <gtest/gtest.h>

#include "fabric_fixture.hpp"

namespace resex::fabric {
namespace {

using namespace resex::sim::literals;
using testing::TwoNodeWorld;

struct ChannelFixture : ::testing::Test {
  TwoNodeWorld world;
  FabricConfig cfg = testing::test_config();
  Channel chan{world.sim, cfg, "test"};
  std::vector<std::pair<sim::SimTime, QpNum>> delivered;
  testing::Endpoint ep_a = world.make_endpoint(world.node_a, *world.hca_a,
                                               "src1");
  testing::Endpoint ep_b = world.make_endpoint(world.node_a, *world.hca_a,
                                               "src2");

  void SetUp() override {
    chan.set_sink([this](detail::Packet p) {
      delivered.emplace_back(world.sim.now(), p.transfer->src_qp->num());
    });
  }

  std::shared_ptr<detail::Transfer> make_transfer(QueuePair& qp,
                                                  std::uint32_t bytes) {
    auto t = std::make_shared<detail::Transfer>();
    t->wr.length = bytes;
    t->src_qp = &qp;
    t->dst_qp = ep_b.qp;
    t->wire_length = bytes;
    t->total_packets = cfg.packets_for(bytes);
    return t;
  }

  void enqueue_message(QueuePair& qp, std::uint32_t bytes) {
    auto t = make_transfer(qp, bytes);
    for (std::uint32_t i = 0; i < t->total_packets; ++i) {
      const std::uint32_t remaining = bytes - i * cfg.mtu_bytes;
      chan.enqueue(detail::Packet{
          t, i, std::min(cfg.mtu_bytes, remaining)});
    }
  }
};

TEST_F(ChannelFixture, RequiresSink) {
  Channel naked(world.sim, cfg, "naked");
  auto t = make_transfer(*ep_a.qp, 100);
  EXPECT_THROW(naked.enqueue(detail::Packet{t, 0, 100}),
               std::logic_error);
}

TEST_F(ChannelFixture, SinglePacketSerializationTime) {
  enqueue_message(*ep_a.qp, 1024);
  world.sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  // 1024 bytes at 1 ns/byte + 200 ns propagation.
  EXPECT_EQ(delivered[0].first, 1024u + 200u);
}

TEST_F(ChannelFixture, PacketsOfOneFlowAreFifoAndPipelined) {
  enqueue_message(*ep_a.qp, 3 * 1024);
  world.sim.run();
  ASSERT_EQ(delivered.size(), 3u);
  EXPECT_EQ(delivered[0].first, 1224u);
  EXPECT_EQ(delivered[1].first, 2248u);  // back-to-back serialization
  EXPECT_EQ(delivered[2].first, 3272u);
}

TEST_F(ChannelFixture, ShortFinalPacket) {
  enqueue_message(*ep_a.qp, 1024 + 100);
  world.sim.run();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[1].first, 1024u + 100u + 200u);
}

TEST_F(ChannelFixture, RoundRobinInterleavesTwoFlows) {
  enqueue_message(*ep_a.qp, 4 * 1024);
  enqueue_message(*ep_b.qp, 4 * 1024);
  world.sim.run();
  ASSERT_EQ(delivered.size(), 8u);
  // Packet-level fairness: no flow ever gets more than two consecutive
  // grants (flow A's first packet starts before flow B is enqueued, so the
  // very first pair may repeat), and the flows overlap rather than running
  // serially.
  std::size_t run = 1;
  for (std::size_t i = 1; i < delivered.size(); ++i) {
    run = (delivered[i].second == delivered[i - 1].second) ? run + 1 : 1;
    EXPECT_LE(run, 2u) << "at " << i;
  }
  // B's first packet must land before A's last one (interleaving).
  sim::SimTime first_b = ~sim::SimTime{0}, last_a = 0;
  for (const auto& [t, qp] : delivered) {
    if (qp == ep_b.qp->num()) first_b = std::min(first_b, t);
    if (qp == ep_a.qp->num()) last_a = std::max(last_a, t);
  }
  EXPECT_LT(first_b, last_a);
}

TEST_F(ChannelFixture, CompetingFlowDoublesCompletionTime) {
  // Baseline: 8 KiB alone finishes its last packet at 8*1024 + 200.
  enqueue_message(*ep_a.qp, 8 * 1024);
  enqueue_message(*ep_b.qp, 64 * 1024);  // much larger competing flow
  world.sim.run();
  sim::SimTime last_a = 0;
  for (const auto& [t, qp] : delivered) {
    if (qp == ep_a.qp->num()) last_a = std::max(last_a, t);
  }
  // With packet-level RR the 8 KiB flow's last packet lands at ~2x its solo
  // time (each of its packets waits for one interferer packet; the first one
  // may slip through before the interferer is queued).
  EXPECT_GT(last_a, 13u * 1024u);
  EXPECT_LT(last_a, 17u * 1024u);
}

TEST_F(ChannelFixture, LateArrivingFlowStillGetsHalfTheLink) {
  enqueue_message(*ep_b.qp, 32 * 1024);
  // Let the big flow run a bit, then inject a small one.
  world.sim.run_until(4_us);
  enqueue_message(*ep_a.qp, 4 * 1024);
  world.sim.run();
  sim::SimTime last_a = 0;
  for (const auto& [t, qp] : delivered) {
    if (qp == ep_a.qp->num()) last_a = std::max(last_a, t);
  }
  // 4 packets, each preceded by at most one interferer packet, starting
  // from ~4 us: bounded well below serial completion after the big flow.
  EXPECT_LT(last_a, 15_us);
  EXPECT_GT(last_a, 10_us);  // but it did contend
}

TEST_F(ChannelFixture, CountersTrackTraffic) {
  enqueue_message(*ep_a.qp, 2048);
  world.sim.run();
  EXPECT_EQ(chan.packets_sent(), 2u);
  EXPECT_EQ(chan.bytes_sent(), 2048u);
  EXPECT_EQ(chan.busy_time(), 2048u);
  EXPECT_EQ(chan.backlog_packets(), 0u);
  EXPECT_FALSE(chan.busy());
}

TEST_F(ChannelFixture, BacklogVisibleWhileQueued) {
  enqueue_message(*ep_a.qp, 4 * 1024);
  EXPECT_TRUE(chan.busy());
  EXPECT_EQ(chan.backlog_packets(), 3u);  // one on the wire
  world.sim.run();
  EXPECT_EQ(chan.backlog_packets(), 0u);
}

TEST_F(ChannelFixture, WrrWeightBiasesGrants) {
  // Flow A weight 3, flow B weight 1: A should get ~3x the grants while
  // both are backlogged.
  chan.set_flow_weight(ep_a.qp->num(), 3);
  enqueue_message(*ep_a.qp, 30 * 1024);
  enqueue_message(*ep_b.qp, 30 * 1024);
  world.sim.run_until(20_us);  // mid-contention snapshot
  std::size_t a = 0, b = 0;
  for (const auto& [t, qp] : delivered) {
    (qp == ep_a.qp->num() ? a : b) += 1;
  }
  ASSERT_GT(b, 0u);
  const double ratio = static_cast<double>(a) / static_cast<double>(b);
  EXPECT_NEAR(ratio, 3.0, 0.8);
}

TEST_F(ChannelFixture, FlowWeightDefaultsAndQuery) {
  EXPECT_EQ(chan.flow_weight(ep_a.qp->num()), 1u);
  chan.set_flow_weight(ep_a.qp->num(), 5);
  EXPECT_EQ(chan.flow_weight(ep_a.qp->num()), 5u);
  chan.set_flow_weight(ep_a.qp->num(), 0);  // clamped to 1
  EXPECT_EQ(chan.flow_weight(ep_a.qp->num()), 1u);
  EXPECT_DOUBLE_EQ(chan.flow_rate_limit(ep_a.qp->num()), 0.0);
}

TEST_F(ChannelFixture, RateLimitCapsThroughput) {
  // 100 MB/s = 0.1 bytes/ns. 64 KiB should take ~655 us instead of ~65 us.
  chan.set_flow_rate_limit(ep_a.qp->num(), 100e6);
  enqueue_message(*ep_a.qp, 64 * 1024);
  world.sim.run();
  sim::SimTime last = 0;
  for (const auto& [t, qp] : delivered) last = std::max(last, t);
  EXPECT_GT(last, 550_us);
  EXPECT_LT(last, 750_us);
}

TEST_F(ChannelFixture, RateLimitRejectsNegative) {
  EXPECT_THROW(chan.set_flow_rate_limit(ep_a.qp->num(), -1.0),
               std::invalid_argument);
}

TEST_F(ChannelFixture, RateLimitedFlowDoesNotBlockOthers) {
  chan.set_flow_rate_limit(ep_b.qp->num(), 50e6);
  enqueue_message(*ep_b.qp, 64 * 1024);  // slow bulk flow
  enqueue_message(*ep_a.qp, 8 * 1024);   // unlimited small flow
  world.sim.run();
  sim::SimTime last_a = 0;
  for (const auto& [t, qp] : delivered) {
    if (qp == ep_a.qp->num()) last_a = std::max(last_a, t);
  }
  // A finishes almost as if alone (B only slips one packet in occasionally).
  EXPECT_LT(last_a, 15_us);
}

TEST_F(ChannelFixture, RateTimerWakesIdleChannel) {
  // Drain the bucket with a first packet, then enqueue another: the channel
  // must self-wake when tokens refill even with no other traffic.
  chan.set_flow_rate_limit(ep_a.qp->num(), 10e6);  // 0.01 B/ns
  enqueue_message(*ep_a.qp, 1024);
  world.sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  enqueue_message(*ep_a.qp, 1024);
  world.sim.run();
  ASSERT_EQ(delivered.size(), 2u);
  // Second packet had to wait ~1024B / 0.01B/ns = ~102 us for tokens.
  EXPECT_GT(delivered[1].first, delivered[0].first + 90_us);
}

TEST_F(ChannelFixture, WrrIsWorkConservingUnderMixedMtuWithRateLimiters) {
  // Property: while an unthrottled flow stays backlogged the link never
  // idles, no matter how weights, rate limiters and packet sizes mix. With
  // test_config's 1 ns/byte wire, that pins every inter-delivery gap to the
  // next packet's serialization time and the makespan to total-bytes + one
  // propagation delay.
  testing::Endpoint ep_c = world.make_endpoint(world.node_a, *world.hca_a,
                                               "src3");
  std::vector<std::uint32_t> sizes;  // bytes of each delivered packet
  chan.set_sink([this, &sizes](detail::Packet p) {
    delivered.emplace_back(world.sim.now(), p.transfer->src_qp->num());
    sizes.push_back(p.bytes);
  });
  chan.set_flow_weight(ep_b.qp->num(), 2);
  chan.set_flow_rate_limit(ep_c.qp->num(), 200e6);  // 0.2 B/ns, 1/5 line rate

  std::uint64_t total_bytes = 0;
  std::size_t total_packets = 0;
  const auto offer = [&](testing::Endpoint& ep, std::uint32_t bytes) {
    enqueue_message(*ep.qp, bytes);
    total_bytes += bytes;
    total_packets += cfg.packets_for(bytes);
  };
  // A: the unthrottled backlog that outlasts everyone (multi-MTU messages
  // with a short tail packet). B: full-MTU and sub-MTU messages at weight 2.
  // C: sub-MTU messages through the token bucket.
  for (int i = 0; i < 20; ++i) offer(ep_a, 2 * 1024 + 512);
  for (int i = 0; i < 8; ++i) offer(ep_b, 1024);
  for (int i = 0; i < 4; ++i) offer(ep_b, 300);
  for (int i = 0; i < 6; ++i) offer(ep_c, 700);
  world.sim.run();

  ASSERT_EQ(delivered.size(), total_packets);  // nothing lost or duplicated
  EXPECT_EQ(chan.busy_time(), total_bytes);    // serialization conserved
  // A must be the straggler for the makespan property to bite.
  ASSERT_EQ(delivered.back().second, ep_a.qp->num());
  EXPECT_EQ(delivered.back().first, total_bytes + 200u);
  // No idle gap anywhere before A's last packet: each delivery follows the
  // previous by exactly its own serialization time.
  EXPECT_EQ(delivered.front().first, sizes.front() + 200u);
  for (std::size_t i = 1; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i].first - delivered[i - 1].first, sizes[i])
        << "link idled before packet " << i;
  }
}

TEST_F(ChannelFixture, WrrDoesNotStarveAnyFlowUnderMixedMtu) {
  testing::Endpoint ep_c = world.make_endpoint(world.node_a, *world.hca_a,
                                               "src3");
  chan.set_flow_weight(ep_b.qp->num(), 2);
  chan.set_flow_rate_limit(ep_c.qp->num(), 200e6);
  enqueue_message(*ep_a.qp, 40 * 1024);
  for (int i = 0; i < 16; ++i) enqueue_message(*ep_b.qp, 700);
  for (int i = 0; i < 4; ++i) enqueue_message(*ep_c.qp, 1024);
  world.sim.run();

  // Every flow is served within the first WRR round (weights sum to 4).
  const auto first_grant = [&](QpNum qp) {
    for (std::size_t i = 0; i < delivered.size(); ++i) {
      if (delivered[i].second == qp) return i;
    }
    return delivered.size();
  };
  EXPECT_LT(first_grant(ep_a.qp->num()), 4u);
  EXPECT_LT(first_grant(ep_b.qp->num()), 4u);
  EXPECT_LT(first_grant(ep_c.qp->num()), 4u);
  // While both unthrottled flows are backlogged, A never waits longer than
  // the other flows' combined weight between its own grants (B's 2 plus at
  // most one C packet whenever its bucket has tokens).
  sim::SimTime last_b = 0;
  for (const auto& [t, qp] : delivered) {
    if (qp == ep_b.qp->num()) last_b = std::max(last_b, t);
  }
  std::size_t run_without_a = 0;
  for (const auto& [t, qp] : delivered) {
    if (t > last_b) break;  // contention over: B drained
    run_without_a = qp == ep_a.qp->num() ? 0 : run_without_a + 1;
    EXPECT_LE(run_without_a, 3u) << "flow A starved at t=" << t;
  }
}

// --- EcnMarker bound properties ---------------------------------------------

TEST(EcnMarkerProperty, NeverMarksBelowKminAlwaysMarksAtOrAboveKmax) {
  EcnMarker marker(4, 12);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const std::uint64_t occ = (i * 7919) % 20;  // deterministic sweep 0..19
    const bool marked = marker.on_enqueue(occ);
    if (occ < 4) {
      EXPECT_FALSE(marked) << "occ=" << occ;
    }
    if (occ >= 12) {
      EXPECT_TRUE(marked) << "occ=" << occ;
    }
  }
}

TEST(EcnMarkerProperty, DisabledMarkerNeverMarks) {
  EcnMarker marker(0, 0);
  for (std::uint64_t occ = 0; occ < 100; ++occ) {
    EXPECT_FALSE(marker.on_enqueue(occ));
  }
}

TEST(EcnMarkerProperty, RampIsLinearAndDeterministic) {
  // Between the thresholds the accumulator realizes the RED ramp exactly:
  // at constant occupancy q the long-run mark count is n*(q-kmin+1)/(kmax-
  // kmin+1) to within one carry.
  constexpr std::uint32_t kMin = 4, kMax = 12;
  constexpr int kN = 9000;
  for (std::uint64_t occ = kMin; occ < kMax; ++occ) {
    EcnMarker marker(kMin, kMax);
    int marks = 0;
    for (int i = 0; i < kN; ++i) marks += marker.on_enqueue(occ) ? 1 : 0;
    const double expected = kN *
                            (static_cast<double>(occ) - kMin + 1.0) /
                            (kMax - kMin + 1.0);
    EXPECT_NEAR(static_cast<double>(marks), expected, 1.0) << "occ=" << occ;
  }
  // And identical sequences mark identically (pure function of history).
  EcnMarker x(kMin, kMax), y(kMin, kMax);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t occ = (i * 31) % 16;
    EXPECT_EQ(x.on_enqueue(occ), y.on_enqueue(occ)) << "i=" << i;
  }
}

TEST_F(ChannelFixture, ZeroLengthMessageStillCostsAPacket) {
  auto t = make_transfer(*ep_a.qp, 0);
  t->wire_length = 1;
  t->total_packets = 1;
  chan.enqueue(detail::Packet{t, 0, 1});
  world.sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].first, 1u + 200u);
}

/// Drops every third packet it is asked about.
struct DropEveryThird : FaultHook {
  PacketFate on_transmit(const Channel& /*channel*/,
                         const detail::Packet& /*pkt*/) override {
    return ++seen % 3 == 0 ? PacketFate::kDrop : PacketFate::kDeliver;
  }
  std::uint32_t seen = 0;
};

TEST_F(ChannelFixture, InFlightFifoDeliversSurvivorsInLaunchOrder) {
  // 64-byte packets serialize in 64 ns against 200 ns of propagation, so
  // several launched packets are in flight at once.
  constexpr std::uint32_t kBytes = 64;
  constexpr std::uint32_t kPackets = 30;
  ASSERT_LT(cfg.serialization_time(kBytes), cfg.propagation_delay);
  DropEveryThird hook;
  chan.set_fault_hook(&hook);
  struct Arrival {
    sim::SimTime at;
    std::uint32_t index;
    std::uint64_t psn;
    bool operator==(const Arrival&) const = default;
  };
  std::vector<Arrival> got;
  chan.set_sink([&](detail::Packet p) {
    got.push_back({world.sim.now(), p.index, p.psn});
  });
  auto t = make_transfer(*ep_a.qp, kPackets * kBytes);
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    chan.enqueue(detail::Packet{t, i, kBytes, 1000 + i});
  }
  world.sim.run();

  // Packet i goes on the wire at i * 64 ns (a dropped one still takes its
  // serialization time) and, unless dropped, lands 200 ns after it leaves.
  std::vector<Arrival> want;
  for (std::uint32_t i = 0; i < kPackets; ++i) {
    if ((i + 1) % 3 == 0) continue;
    want.push_back({(i + 1) * sim::SimTime{kBytes} + cfg.propagation_delay,
                    i, 1000u + i});
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(chan.packets_dropped(), kPackets / 3);
  EXPECT_EQ(chan.packets_sent(), kPackets);
}

}  // namespace
}  // namespace resex::fabric
