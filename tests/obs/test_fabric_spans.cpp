// Verifies the data-path trace instrumentation against real traffic: WQE
// fetch and doorbell pickup latency appear as complete ('X') spans with the
// configured fetch cost as their duration, and every switch traversal of
// every packet leaves a "pkt.hop" instant carrying the switch id.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "../fabric/fabric_fixture.hpp"
#include "obs/trace.hpp"

namespace resex::obs {
namespace {

using fabric::testing::Endpoint;
using fabric::testing::TwoNodeWorld;
using fabric::testing::make_endpoint_on;
using sim::Task;

/// Collect all trace events with the given name, oldest first.
std::vector<TraceEvent> events_named(const Tracer& tracer, const char* name) {
  std::vector<TraceEvent> out;
  tracer.for_each([&out, name](const TraceEvent& ev) {
    if (std::string_view(ev.name) == name) out.push_back(ev);
  });
  return out;
}

fabric::SendWr write_wr(const Endpoint& src, const Endpoint& dst,
                        std::uint32_t bytes) {
  fabric::SendWr wr;
  wr.opcode = fabric::Opcode::kRdmaWriteWithImm;
  wr.local_addr = src.buf;
  wr.lkey = src.mr.lkey;
  wr.length = bytes;
  wr.remote_addr = dst.buf;
  wr.rkey = dst.mr.rkey;
  return wr;
}

TEST(FabricSpans, DoorbellPickupLatencyIsTraced) {
  TwoNodeWorld world;
  world.sim.tracer().enable(4096);
  auto [src, dst] = world.make_connected_pair();
  dst.qp->post_recv(fabric::RecvWr{.wr_id = 1});
  world.sim.spawn([](Endpoint& s, Endpoint& d) -> Task {
    co_await s.verbs->post_send(*s.qp, write_wr(s, d, 4096));
    (void)co_await s.verbs->next_cqe(*s.send_cq);
  }(src, dst));
  world.sim.run_until(10 * sim::kMillisecond);

  const auto spans = events_named(world.sim.tracer(), "hca.doorbell");
  ASSERT_FALSE(spans.empty());
  const auto& cfg = world.fabric.config();
  for (const auto& ev : spans) {
    EXPECT_EQ(ev.phase, 'X');
    // Unstalled pickup: duration is exactly the configured fetch cost.
    EXPECT_EQ(ev.dur, cfg.doorbell_latency + cfg.wqe_processing);
  }
  // The span argument carries how many WQEs the doorbell announced.
  EXPECT_DOUBLE_EQ(spans.front().b.value, 1.0);
}

TEST(FabricSpans, DirectWqeInjectionIsTraced) {
  TwoNodeWorld world;
  world.sim.tracer().enable(4096);
  auto [src, dst] = world.make_connected_pair();
  dst.qp->post_recv(fabric::RecvWr{.wr_id = 1});
  world.sim.schedule_at(0, [&src = src, &dst = dst, &world] {
    world.hca_a->post_send(*src.qp, write_wr(src, dst, 2048));
  });
  world.sim.run_until(10 * sim::kMillisecond);

  const auto spans = events_named(world.sim.tracer(), "hca.wqe_fetch");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans.front().phase, 'X');
  const auto& cfg = world.fabric.config();
  EXPECT_EQ(spans.front().dur, cfg.doorbell_latency + cfg.wqe_processing);
  EXPECT_DOUBLE_EQ(spans.front().a.value,
                   static_cast<double>(src.qp->num()));
}

TEST(FabricSpans, EveryCrossSwitchPacketLeavesHopInstants) {
  // Two switches, one trunk: every packet traverses the source switch (which
  // forwards on the trunk) and the destination switch (which delivers to the
  // downlink) — two "pkt.hop" instants per data packet.
  sim::Simulation sim;
  sim.tracer().enable(16384);
  hv::Node node_a{sim, "A", 8};
  hv::Node node_b{sim, "B", 8};
  fabric::Fabric fab(sim, fabric::testing::test_config());
  const std::uint32_t sw1 = fab.add_switch();
  fabric::Hca& hca_a = fab.add_node(node_a);
  fabric::Hca& hca_b = fab.add_node(node_b, sw1);
  fab.add_trunk(0, sw1);

  Endpoint src = make_endpoint_on(node_a, hca_a, "vmA");
  Endpoint dst = make_endpoint_on(node_b, hca_b, "vmB");
  fabric::Fabric::connect(*src.qp, *dst.qp);
  dst.qp->post_recv(fabric::RecvWr{.wr_id = 1});

  const std::uint32_t kBytes = 8 * 1024;  // 8 packets at the 1 KiB MTU
  sim.spawn([](Endpoint& s, Endpoint& d, std::uint32_t bytes) -> Task {
    co_await s.verbs->post_send(*s.qp, write_wr(s, d, bytes));
    (void)co_await s.verbs->next_cqe(*s.send_cq);
  }(src, dst, kBytes));
  sim.run_until(10 * sim::kMillisecond);

  const auto hops = events_named(sim.tracer(), "pkt.hop");
  const std::uint32_t packets = kBytes / fab.config().mtu_bytes;
  // At least two traversals per data packet (acks may add more).
  EXPECT_GE(hops.size(), 2u * packets);
  std::map<double, std::size_t> per_switch;
  for (const auto& ev : hops) {
    EXPECT_EQ(ev.phase, 'i');
    per_switch[ev.a.value]++;
  }
  // Both switches saw every data packet.
  ASSERT_EQ(per_switch.size(), 2u);
  EXPECT_GE(per_switch[0.0], packets);
  EXPECT_GE(per_switch[static_cast<double>(sw1)], packets);
  // And the hop counter agrees with the trace.
  EXPECT_EQ(
      static_cast<std::size_t>(
          sim.metrics().counter("fabric.switch_hops").value()),
      hops.size());
}

/// Two senders incast one receiver through a tiny lossless port (8-packet
/// switch buffers, PFC on), traced. Sender A's QP rides service level
/// `sl_a`, sender B's SL 0.
struct PfcIncast {
  sim::Simulation sim;
  hv::Node node_a{sim, "A", 8};
  hv::Node node_b{sim, "B", 8};
  hv::Node node_c{sim, "C", 8};
  fabric::Fabric fab;
  fabric::Hca& hca_a;
  fabric::Hca& hca_b;
  fabric::Hca& hca_c;
  Endpoint src_a, src_b, dst_a, dst_b;

  PfcIncast(fabric::FabricConfig cfg, std::uint8_t sl_a)
      : fab(sim, with_pfc(cfg)),
        hca_a(fab.add_node(node_a)),
        hca_b(fab.add_node(node_b)),
        hca_c(fab.add_node(node_c)) {
    sim.tracer().enable(1 << 16);
    src_a = make_endpoint_on(node_a, hca_a, "vmA");
    src_b = make_endpoint_on(node_b, hca_b, "vmB");
    dst_a = make_endpoint_on(node_c, hca_c, "vmCa");
    dst_b = make_endpoint_on(node_c, hca_c, "vmCb");
    src_a.qp->set_service_level(sl_a);
    dst_a.qp->set_service_level(sl_a);
    fabric::Fabric::connect(*src_a.qp, *dst_a.qp);
    fabric::Fabric::connect(*src_b.qp, *dst_b.qp);
    dst_a.qp->post_recv(fabric::RecvWr{.wr_id = 1});
    dst_b.qp->post_recv(fabric::RecvWr{.wr_id = 2});
    sim.schedule_at(0, [this] {
      hca_a.post_send(*src_a.qp, write_wr(src_a, dst_a, 48 * 1024));
      hca_b.post_send(*src_b.qp, write_wr(src_b, dst_b, 48 * 1024));
    });
    sim.run_until(50 * sim::kMillisecond);
  }

  static fabric::FabricConfig with_pfc(fabric::FabricConfig cfg) {
    cfg.port_buffer_pkts = 8;
    cfg.pfc_enabled = true;
    return cfg;
  }

  /// Paused time accounted by every channel feeding the switch — a pause
  /// frame reaches the receiver's own idle uplink too.
  [[nodiscard]] sim::SimDuration feeders_paused_time() const {
    return hca_a.uplink().paused_time() + hca_b.uplink().paused_time() +
           hca_c.uplink().paused_time();
  }
  [[nodiscard]] bool any_feeder_paused() const {
    return hca_a.uplink().paused() || hca_b.uplink().paused() ||
           hca_c.uplink().paused();
  }
};

TEST(FabricSpans, PfcPausesLeaveInstantsAndCompleteSpans) {
  // The receiver downlink must assert XOFF ("fabric.pause" instant), later
  // release it ("fabric.resume"), and every completed pause episode on a
  // feeder must appear as a "fabric.paused" complete span whose durations
  // sum to exactly the feeders' accounted paused time.
  PfcIncast w(fabric::testing::test_config(), 0);

  const auto pauses = events_named(w.sim.tracer(), "fabric.pause");
  const auto resumes = events_named(w.sim.tracer(), "fabric.resume");
  ASSERT_FALSE(pauses.empty());
  ASSERT_FALSE(resumes.empty());
  for (const auto& ev : pauses) {
    EXPECT_EQ(ev.phase, 'i');
    EXPECT_STREQ(ev.category, "congestion");
    // The instant carries the port occupancy that tripped (or released) the
    // threshold; at XOFF assert time it cannot be empty.
    EXPECT_GT(ev.a.value, 0.0);
  }
  for (const auto& ev : resumes) EXPECT_EQ(ev.phase, 'i');
  // One instant per XOFF assertion, and the metrics layer agrees.
  EXPECT_EQ(pauses.size(), w.hca_c.downlink().pauses_sent());
  EXPECT_EQ(static_cast<std::size_t>(
                w.sim.metrics().counter("fabric.pfc_pauses").value()),
            pauses.size());
  // Every pause was released once the incast drained.
  EXPECT_EQ(pauses.size(), resumes.size());

  const auto spans = events_named(w.sim.tracer(), "fabric.paused");
  ASSERT_FALSE(spans.empty());
  sim::SimDuration traced = 0;
  for (const auto& ev : spans) {
    EXPECT_EQ(ev.phase, 'X');
    EXPECT_STREQ(ev.category, "congestion");
    EXPECT_GT(ev.dur, 0);
    traced += ev.dur;
  }
  // The spans are the feeders' pause episodes: their durations must add up
  // to exactly the paused time the channels accounted (nothing left paused).
  EXPECT_FALSE(w.any_feeder_paused());
  EXPECT_EQ(traced, w.feeders_paused_time());
}

TEST(FabricSpans, LanePausesAreChannelPausesWithTheirLane) {
  // Two lanes (--qos --pfc), sender A on the bulk lane: the per-lane pause
  // spells are "fabric.paused" spans carrying their lane, and the channels'
  // paused_time() accounts exactly those spells.
  fabric::FabricConfig cfg = fabric::testing::test_config();
  cfg.qos_enabled = true;
  cfg.num_vls = 2;
  cfg.sl2vl[1] = 1;
  PfcIncast w(cfg, 1);

  const auto spans = events_named(w.sim.tracer(), "fabric.paused");
  ASSERT_FALSE(spans.empty());
  sim::SimDuration traced = 0;
  std::set<double> lanes;
  for (const auto& ev : spans) {
    EXPECT_EQ(ev.phase, 'X');
    EXPECT_STREQ(ev.category, "congestion");
    ASSERT_STREQ(ev.a.key, "vl");
    lanes.insert(ev.a.value);
    traced += ev.dur;
  }
  EXPECT_TRUE(lanes.count(1.0)) << "the bulk lane was never paused";
  for (const double vl : lanes) EXPECT_LT(vl, 2.0);
  EXPECT_FALSE(w.any_feeder_paused());
  EXPECT_EQ(traced, w.feeders_paused_time());
}

}  // namespace
}  // namespace resex::obs
