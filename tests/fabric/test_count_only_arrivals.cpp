// Count-only arrivals: on a fabric that can neither drop nor reorder a
// transfer's packets, the destination downlink counts each packet that is
// neither its transfer's last nor ECN-marked at launch and posts no delivery
// for it (DESIGN.md §5). The counts below are closed forms of one write on
// an idle two-node star at 1 ns/byte. Packet mode (a reliable fabric) runs
//   1 WQE pickup, then per packet an uplink tx-complete, an uplink delivery
//   and a downlink tx-complete, then the n deliveries of the downlink, then
//   1 send-CQE DMA.
// A lossless star sends the message as a packet train instead, whose
// per-packet events are computed, not dispatched (DESIGN.md §5).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "fabric/congestion_hook.hpp"
#include "fabric/fault_hook.hpp"
#include "fabric_fixture.hpp"

namespace resex::fabric {
namespace {

using testing::TwoNodeWorld;

constexpr std::uint32_t kMtu = 1024;

/// Post one signaled `packets`-MTU RDMA write from `a` to `b`.
void post_write(Hca& hca, const Endpoint& a, const Endpoint& b,
                std::uint32_t packets) {
  SendWr wr;
  wr.opcode = Opcode::kRdmaWrite;
  wr.local_addr = a.buf;
  wr.lkey = a.mr.lkey;
  wr.length = packets * kMtu;
  wr.remote_addr = b.buf;
  wr.rkey = b.mr.rkey;
  hca.post_send(*a.qp, wr);
}

/// `a`'s one send CQE, asserted successful.
Cqe only_cqe(const Endpoint& a) {
  const auto cqe = a.send_cq->poll();
  EXPECT_TRUE(cqe.has_value());
  if (!cqe) return {};
  EXPECT_EQ(cqe->status, static_cast<std::uint8_t>(CqeStatus::kSuccess));
  EXPECT_FALSE(a.send_cq->poll().has_value());
  return *cqe;
}

/// Post one write of `packets` MTUs from `a` to `b`, run until quiet, and
/// return its send CQE.
Cqe write_and_run(sim::Simulation& sim, Hca& hca, const Endpoint& a,
                  const Endpoint& b, std::uint32_t packets) {
  post_write(hca, a, b, packets);
  sim.run();
  return only_cqe(a);
}

/// The wire time of an idle n-packet write at 1 ns/byte: pickup (400 ns),
/// n + 1 MTU serializations (the downlink trails the uplink by one packet),
/// two propagation delays, then the ACK (500 ns) and the CQE DMA (100 ns).
std::uint64_t idle_cqe_time(std::uint32_t packets) {
  return 400 + std::uint64_t{packets + 1} * kMtu + 2 * 200 + 500 + 100;
}

TEST(CountOnlyArrivals, IdleLosslessWritePostsOneDownlinkDelivery) {
  for (const std::uint32_t n : {64u, 2048u}) {
    SCOPED_TRACE("packets=" + std::to_string(n));
    TwoNodeWorld w;
    auto [a, b] = w.make_connected_pair(std::size_t{n} * kMtu);
    const Cqe cqe = write_and_run(w.sim, *w.hca_a, a, b, n);
    // Unchanged from when every packet posted its downlink delivery.
    EXPECT_EQ(cqe.timestamp_ns, idle_cqe_time(n));
    // The WQE pickup; the train's one event, the uplink tx-complete of the
    // last packet, which hands the rest back to packet mode; that packet's
    // uplink delivery; the downlink tx-completes of the last two packets;
    // the last packet's downlink delivery; the CQE DMA.
    EXPECT_EQ(w.sim.events_processed(), 7u);
    EXPECT_EQ(w.hca_b->downlink().packets_sent(), n);
    EXPECT_EQ(w.sim.metrics().counter("fabric.transfers").value(), 1u);
  }
}

/// Counts the marked arrivals the destination HCA reports.
struct CountMarks final : CongestionHook {
  std::uint64_t marked = 0;
  void on_marked_arrival(QueuePair& /*src_qp*/) override { ++marked; }
};

TEST(CountOnlyArrivals, MarkedPacketsStillReachTheCongestionHook) {
  // Two senders incast into one receiver through infinite buffers: the
  // fabric stays unreliable (count-only), and the receiver's downlink
  // queue crosses the ECN ramp, so it marks packets mid-message.
  FabricConfig cfg = testing::test_config();
  cfg.ecn_kmin_pkts = 2;
  cfg.ecn_kmax_pkts = 8;
  sim::Simulation sim;
  hv::Node na{sim, "A", 8}, nb{sim, "B", 8}, nc{sim, "C", 8};
  Fabric fabric(sim, cfg);
  Hca& ha = fabric.add_node(na);
  Hca& hb = fabric.add_node(nb);
  Hca& hc = fabric.add_node(nc);
  ASSERT_FALSE(fabric.reliable());
  CountMarks hook;
  fabric.set_congestion_hook(&hook);

  constexpr std::uint32_t kPackets = 64;
  constexpr std::size_t kBytes = std::size_t{kPackets} * kMtu;
  const Endpoint a = testing::make_endpoint_on(na, ha, "vmA", kBytes);
  const Endpoint c = testing::make_endpoint_on(nc, hc, "vmC", kBytes);
  const Endpoint ba = testing::make_endpoint_on(nb, hb, "vmBa", kBytes);
  const Endpoint bc = testing::make_endpoint_on(nb, hb, "vmBc", kBytes);
  Fabric::connect(*a.qp, *ba.qp);
  Fabric::connect(*c.qp, *bc.qp);
  post_write(ha, a, ba, kPackets);
  post_write(hc, c, bc, kPackets);
  sim.run();
  only_cqe(a);
  only_cqe(c);
  // More marks than messages: most marked packets are not their message's
  // last, and each of them reached the hook.
  const std::uint64_t marks = hb.downlink().ecn_marks();
  EXPECT_GT(marks, 2u);
  EXPECT_EQ(hook.marked, marks);
  EXPECT_EQ(sim.metrics().counter("fabric.transfers").value(), 2u);
}

/// Passes every packet: installing it makes the fabric reliable.
struct PassAll final : FaultHook {
  PacketFate on_transmit(const Channel& /*channel*/,
                         const detail::Packet& /*pkt*/) override {
    return PacketFate::kDeliver;
  }
};

TEST(CountOnlyArrivals, EveryPacketIsDeliveredWhenTheFabricMayDropOrReorder) {
  // Finite buffers or a fault hook (a drop would leave a hole only the
  // per-packet reassembly finds), or adaptive routing (a transfer's packets
  // may take two paths and arrive out of index order): the downlink posts a
  // delivery for every packet, as it always did.
  constexpr std::uint32_t kPackets = 64;
  struct Case {
    std::string name;
    FabricConfig cfg;
    bool hook = false;
  };
  FabricConfig finite = testing::test_config();
  finite.port_buffer_pkts = 4 * kPackets;  // never fills: nothing drops
  FabricConfig adaptive = testing::test_config();
  adaptive.routing.mode = routing::RouteMode::kAdaptive;
  const Case cases[] = {{"finite buffers", finite, false},
                        {"fault hook", testing::test_config(), true},
                        {"adaptive routing", adaptive, false}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TwoNodeWorld w(c.cfg);
    PassAll pass;
    if (c.hook) w.fabric.set_fault_hook(&pass);
    auto [a, b] = w.make_connected_pair(std::size_t{kPackets} * kMtu);
    const Cqe cqe = write_and_run(w.sim, *w.hca_a, a, b, kPackets);
    EXPECT_EQ(cqe.timestamp_ns, idle_cqe_time(kPackets));
    // The ack timer is cancelled at completion and never fires.
    EXPECT_EQ(w.sim.events_processed(), 1 + 4 * std::uint64_t{kPackets} + 1);
    EXPECT_EQ(w.sim.metrics().counter("fabric.transfers").value(), 1u);
  }
}

TEST(CountOnlyArrivals, AdaptiveRoutingCanDeliverAMessagesLastPacketEarly) {
  // Why adaptive routing is excluded: two back-to-back writes A and B of one
  // QP go from host H on switch 0 to host D on switch 4, over
  //   0 -> 1 (1/4 rate) or 0 -> 2, then 1 -> 3 and 2 -> 3,
  //   then 3 -> 4 (1/100 rate) or 3 -> 5 -> 4.
  // A's packets queue on the slow 0->1 trunk, so B's first packet takes 2
  // and reaches switch 3 while A's tail is still behind it. B re-places the
  // QP's flow at 3 off the backlogged slow trunk onto 5, and A's later
  // packets follow: A's last packet reaches D before its first two, which
  // are still crawling down 3->4. A per-packet count completes A at its
  // true last arrival; eliding every packet but index n-1 would leave A
  // never completed.
  sim::Simulation sim;
  hv::Node nh{sim, "H", 8}, nd{sim, "D", 8};
  FabricConfig cfg = testing::test_config();
  cfg.routing.mode = routing::RouteMode::kAdaptive;
  Fabric fabric(sim, cfg);
  for (int s = 1; s <= 5; ++s) fabric.add_switch();
  fabric.add_trunk(0, 1, 0.25);
  fabric.add_trunk(0, 2);
  fabric.add_trunk(1, 3);
  fabric.add_trunk(2, 3);
  fabric.add_trunk(3, 4, 0.01);
  fabric.add_trunk(3, 5);
  fabric.add_trunk(5, 4);
  fabric.add_route_candidate(0, 4, 1);
  fabric.add_route_candidate(0, 4, 2);
  fabric.add_route_candidate(1, 4, 3);
  fabric.add_route_candidate(2, 4, 3);
  fabric.add_route_candidate(3, 4, 4);
  fabric.add_route_candidate(3, 4, 5);
  Hca& hh = fabric.add_node(nh, 0);
  Hca& hd = fabric.add_node(nd, 4);

  constexpr std::uint32_t kPackets = 8;
  constexpr std::size_t kBytes = std::size_t{kPackets} * kMtu;
  const Endpoint a = testing::make_endpoint_on(nh, hh, "vmH", kBytes);
  const Endpoint d = testing::make_endpoint_on(nd, hd, "vmD", kBytes);
  Fabric::connect(*a.qp, *d.qp);
  post_write(hh, a, d, kPackets);
  post_write(hh, a, d, kPackets);
  sim.run();
  for (int done = 0; done < 2; ++done) {
    const auto cqe = a.send_cq->poll();
    ASSERT_TRUE(cqe.has_value()) << "only " << done << " of 2 writes completed";
    EXPECT_EQ(cqe->status, static_cast<std::uint8_t>(CqeStatus::kSuccess));
  }
  // B moved the flow twice: at 0 (onto 2) and at 3 (onto 5).
  EXPECT_EQ(sim.metrics().counter("fabric.route_rehash").value(), 2u);
  EXPECT_EQ(sim.metrics().counter("fabric.transfers").value(), 2u);
}

}  // namespace
}  // namespace resex::fabric
