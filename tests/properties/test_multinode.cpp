// Multi-node fabric topologies: the switch model must arbitrate fairly when
// several source nodes converge on one destination port (incast), the
// pattern a consolidated exchange sees from many gateways; store-and-forward
// trunk hops must compose; and scripted fault plans must select per-node
// channels by glob.

#include <gtest/gtest.h>

#include "fabric/verbs.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "hv/node.hpp"
#include "sim/simulation.hpp"

namespace resex::fabric {
namespace {

using namespace resex::sim::literals;
using sim::SimTime;
using sim::Task;

struct Peer {
  hv::Domain* domain;
  std::unique_ptr<Verbs> verbs;
  std::uint32_t pd;
  CompletionQueue* scq;
  CompletionQueue* rcq;
  QueuePair* qp;
  mem::GuestAddr buf;
  mem::RegisteredRegion mr;
};

Peer make_peer(hv::Node& node, Hca& hca, std::size_t buf_bytes) {
  Peer p;
  p.domain = &node.create_domain({.name = node.name() + "/vm",
                                  .mem_pages = 2048});
  p.verbs = std::make_unique<Verbs>(hca, *p.domain);
  p.pd = hca.alloc_pd(*p.domain);
  p.scq = &hca.create_cq(*p.domain, 1024);
  p.rcq = &hca.create_cq(*p.domain, 1024);
  p.qp = &hca.create_qp(*p.domain, p.pd, *p.scq, *p.rcq);
  p.buf = p.domain->allocator().allocate(buf_bytes, mem::kPageSize);
  p.mr = hca.reg_mr(p.pd, *p.domain, p.buf, buf_bytes,
                    mem::Access::kLocalWrite | mem::Access::kRemoteWrite);
  return p;
}

Task stream(Peer& src, Peer& dst, std::uint32_t bytes, int count,
            SimTime& done) {
  for (int i = 0; i < count; ++i) {
    SendWr wr;
    wr.opcode = Opcode::kRdmaWrite;
    wr.local_addr = src.buf;
    wr.lkey = src.mr.lkey;
    wr.length = bytes;
    wr.remote_addr = dst.buf;
    wr.rkey = dst.mr.rkey;
    co_await src.verbs->post_send(*src.qp, wr);
    (void)co_await src.verbs->next_cqe(*src.scq);
  }
  done = src.verbs->vcpu().simulation().now();
}

TEST(MultiNodeFabric, IncastSharesTheDestinationPort) {
  sim::Simulation sim;
  FabricConfig cfg;
  cfg.link_bytes_per_sec = 1e9;  // 1 ns/byte
  Fabric fabric(sim, cfg);

  constexpr int kSenders = 3;
  std::vector<std::unique_ptr<hv::Node>> nodes;
  std::vector<Hca*> hcas;
  for (int i = 0; i <= kSenders; ++i) {
    nodes.push_back(
        std::make_unique<hv::Node>(sim, "n" + std::to_string(i), 4));
    hcas.push_back(&fabric.add_node(*nodes.back()));
  }
  EXPECT_EQ(fabric.hca_count(), static_cast<std::size_t>(kSenders) + 1);

  // Senders on n1..n3, one sink VM per sender on n0.
  std::vector<Peer> sources, sinks;
  for (int i = 0; i < kSenders; ++i) {
    sources.push_back(make_peer(*nodes[static_cast<std::size_t>(i) + 1],
                                *hcas[static_cast<std::size_t>(i) + 1],
                                256 * 1024));
    sinks.push_back(make_peer(*nodes[0], *hcas[0], 256 * 1024));
    Fabric::connect(*sources.back().qp, *sinks.back().qp);
  }

  // Solo reference: one sender alone.
  SimTime solo = 0;
  {
    sim::Simulation ref_sim;
    Fabric ref_fabric(ref_sim, cfg);
    hv::Node na(ref_sim, "a", 4), nb(ref_sim, "b", 4);
    Hca& ha = ref_fabric.add_node(na);
    Hca& hb = ref_fabric.add_node(nb);
    Peer s = make_peer(na, ha, 256 * 1024);
    Peer d = make_peer(nb, hb, 256 * 1024);
    Fabric::connect(*s.qp, *d.qp);
    ref_sim.spawn(stream(s, d, 128 * 1024, 10, solo));
    ref_sim.run();
  }

  std::vector<SimTime> done(kSenders, 0);
  for (int i = 0; i < kSenders; ++i) {
    sim.spawn(stream(sources[static_cast<std::size_t>(i)],
                     sinks[static_cast<std::size_t>(i)], 128 * 1024, 10,
                     done[static_cast<std::size_t>(i)]));
  }
  sim.run();

  // Each sender's private uplink is uncontended, but n0's downlink carries
  // all three flows: everyone finishes in ~3x the solo time, and fairly.
  for (int i = 0; i < kSenders; ++i) {
    EXPECT_GT(done[static_cast<std::size_t>(i)], 2 * solo) << "i=" << i;
    EXPECT_LT(done[static_cast<std::size_t>(i)], 4 * solo) << "i=" << i;
  }
  const auto [min_it, max_it] = std::minmax_element(done.begin(), done.end());
  EXPECT_LT(static_cast<double>(*max_it - *min_it),
            0.25 * static_cast<double>(*max_it));
  // Conservation at the shared port.
  EXPECT_EQ(hcas[0]->downlink().bytes_sent(),
            std::uint64_t{kSenders} * 10 * 128 * 1024);
}

// Property: a switch forwards each port pair independently. A flow between
// one host pair must complete at *exactly* the same simulated time whether or
// not a second flow runs between two other hosts on the same switch — the
// ports are disjoint, so per-port forwarding delay, arbitration and buffering
// must not couple them (cross-traffic shifting this time even by one
// nanosecond would mean a shared-queue bug in the switch model).
TEST(MultiNodeFabric, DisjointPortPairsForwardIndependently) {
  const auto run = [](bool with_background) {
    sim::Simulation sim;
    FabricConfig cfg;
    cfg.link_bytes_per_sec = 1e9;  // 1 ns/byte
    Fabric fabric(sim, cfg);
    std::vector<std::unique_ptr<hv::Node>> nodes;
    std::vector<Hca*> hcas;
    for (int i = 0; i < 4; ++i) {
      nodes.push_back(
          std::make_unique<hv::Node>(sim, "n" + std::to_string(i), 4));
      hcas.push_back(&fabric.add_node(*nodes.back()));
    }
    Peer a = make_peer(*nodes[0], *hcas[0], 256 * 1024);
    Peer b = make_peer(*nodes[1], *hcas[1], 256 * 1024);
    Peer c = make_peer(*nodes[2], *hcas[2], 256 * 1024);
    Peer d = make_peer(*nodes[3], *hcas[3], 256 * 1024);
    Fabric::connect(*a.qp, *b.qp);
    Fabric::connect(*c.qp, *d.qp);
    SimTime done_ab = 0, done_cd = 0;
    sim.spawn(stream(a, b, 128 * 1024, 12, done_ab));
    if (with_background) {
      // Different message size and count on the disjoint pair, so any
      // accidental coupling would misalign, not coincide.
      sim.spawn(stream(c, d, 96 * 1024, 20, done_cd));
    }
    sim.run();
    return done_ab;
  };
  EXPECT_EQ(run(false), run(true));
}

// One switch, two switches, three switches in a line: each store-and-forward
// trunk traversal charges its own serialization + propagation, so every
// extra switch adds exactly the same increment to a single packet's latency.
TEST(MultiNodeFabric, TrunkHopsComposeLinearly) {
  FabricConfig cfg;
  cfg.link_bytes_per_sec = 1e9;  // 1 ns/byte
  const auto one_packet_latency = [&cfg](std::uint32_t switches) {
    sim::Simulation sim;
    Fabric fabric(sim, cfg);
    for (std::uint32_t s = 1; s < switches; ++s) {
      const std::uint32_t sw = fabric.add_switch();
      fabric.add_trunk(sw - 1, sw);
    }
    if (switches >= 3) {
      // No direct trunk between the end switches: route via the line.
      for (std::uint32_t s = 0; s + 1 < switches; ++s) {
        fabric.add_route_candidate(s, switches - 1, s + 1);
      }
    }
    hv::Node src_node(sim, "src", 4), dst_node(sim, "dst", 4);
    Hca& src_hca = fabric.add_node(src_node);
    Hca& dst_hca = fabric.add_node(dst_node, switches - 1);
    Peer s = make_peer(src_node, src_hca, 64 * 1024);
    Peer d = make_peer(dst_node, dst_hca, 64 * 1024);
    Fabric::connect(*s.qp, *d.qp);
    SimTime done = 0;
    sim.spawn(stream(s, d, 1024, 1, done));
    sim.run();
    return done;
  };
  const SimTime t1 = one_packet_latency(1);
  const SimTime t2 = one_packet_latency(2);
  const SimTime t3 = one_packet_latency(3);
  EXPECT_GT(t2, t1);
  EXPECT_GT(t3, t2);
  EXPECT_EQ(t3 - t2, t2 - t1);  // each hop costs the same increment
}

// Cross-switch incast: three sender nodes on one leaf stream to three sink
// nodes on another, so the only shared resource is the inter-switch trunk.
// The trunk must serve the flows fairly and conserve bytes.
TEST(MultiNodeFabric, CrossSwitchIncastSharesTheTrunkFairly) {
  FabricConfig cfg;
  cfg.link_bytes_per_sec = 1e9;  // 1 ns/byte
  constexpr int kSenders = 3;
  const auto build_and_run = [&cfg](int senders, std::vector<SimTime>& done) {
    sim::Simulation sim;
    Fabric fabric(sim, cfg);
    const std::uint32_t leaf = fabric.add_switch();
    fabric.add_trunk(0, leaf);
    std::vector<std::unique_ptr<hv::Node>> nodes;
    std::vector<Peer> sources, sinks;
    for (int i = 0; i < senders; ++i) {
      nodes.push_back(std::make_unique<hv::Node>(
          sim, "src" + std::to_string(i), 4));
      Hca& src_hca = fabric.add_node(*nodes.back(), leaf);
      sources.push_back(make_peer(*nodes.back(), src_hca, 256 * 1024));
      nodes.push_back(std::make_unique<hv::Node>(
          sim, "dst" + std::to_string(i), 4));
      Hca& dst_hca = fabric.add_node(*nodes.back());  // switch 0
      sinks.push_back(make_peer(*nodes.back(), dst_hca, 256 * 1024));
      Fabric::connect(*sources.back().qp, *sinks.back().qp);
    }
    done.assign(static_cast<std::size_t>(senders), 0);
    for (int i = 0; i < senders; ++i) {
      sim.spawn(stream(sources[static_cast<std::size_t>(i)],
                       sinks[static_cast<std::size_t>(i)], 128 * 1024, 10,
                       done[static_cast<std::size_t>(i)]));
    }
    sim.run();
    return fabric.trunk(leaf, 0)->bytes_sent();
  };

  std::vector<SimTime> solo_done;
  build_and_run(1, solo_done);
  const SimTime solo = solo_done[0];

  std::vector<SimTime> done;
  const std::uint64_t trunk_bytes = build_and_run(kSenders, done);
  for (int i = 0; i < kSenders; ++i) {
    EXPECT_GT(done[static_cast<std::size_t>(i)], 2 * solo) << "i=" << i;
    EXPECT_LT(done[static_cast<std::size_t>(i)], 4 * solo) << "i=" << i;
  }
  const auto [min_it, max_it] = std::minmax_element(done.begin(), done.end());
  EXPECT_LT(static_cast<double>(*max_it - *min_it),
            0.25 * static_cast<double>(*max_it));
  // Byte conservation on the shared trunk.
  EXPECT_EQ(trunk_bytes, std::uint64_t{kSenders} * 10 * 128 * 1024);
}

// The CQE sequence of a contended incast is a pure function of the
// configuration: two independent simulations must produce identical
// completion timestamps in identical order.
TEST(MultiNodeFabric, IncastCqeSequenceIsDeterministic) {
  const auto run_once = [] {
    sim::Simulation sim;
    FabricConfig cfg;
    cfg.link_bytes_per_sec = 1e9;
    Fabric fabric(sim, cfg);
    constexpr int kSenders = 4;
    std::vector<std::unique_ptr<hv::Node>> nodes;
    nodes.push_back(std::make_unique<hv::Node>(sim, "n0", 8));
    Hca& sink_hca = fabric.add_node(*nodes.back());
    hv::Node& sink_node = *nodes.back();
    std::vector<Peer> sources, sinks;
    std::vector<std::vector<SimTime>> times(kSenders);
    for (int i = 0; i < kSenders; ++i) {
      nodes.push_back(std::make_unique<hv::Node>(
          sim, "n" + std::to_string(i + 1), 4));
      Hca& src_hca = fabric.add_node(*nodes.back());
      sources.push_back(make_peer(*nodes.back(), src_hca, 256 * 1024));
      sinks.push_back(make_peer(sink_node, sink_hca, 256 * 1024));
      Fabric::connect(*sources.back().qp, *sinks.back().qp);
    }
    for (int i = 0; i < kSenders; ++i) {
      sim.spawn([](Peer& src, Peer& dst, std::vector<SimTime>& out) -> Task {
        for (int m = 0; m < 6; ++m) {
          SendWr wr;
          wr.opcode = Opcode::kRdmaWrite;
          wr.local_addr = src.buf;
          wr.lkey = src.mr.lkey;
          wr.length = 96 * 1024;
          wr.remote_addr = dst.buf;
          wr.rkey = dst.mr.rkey;
          co_await src.verbs->post_send(*src.qp, wr);
          (void)co_await src.verbs->next_cqe(*src.scq);
          out.push_back(src.verbs->vcpu().simulation().now());
        }
      }(sources[static_cast<std::size_t>(i)],
        sinks[static_cast<std::size_t>(i)],
        times[static_cast<std::size_t>(i)]));
    }
    sim.run();
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- fault-plan glob coverage over per-node channels ------------------------

TEST(MultiNodeFabric, ChannelGlobMatching) {
  using fault::matches_channel;
  EXPECT_TRUE(matches_channel("", "n3/up"));          // empty = everything
  EXPECT_TRUE(matches_channel("/up", "n3/up"));       // substring
  EXPECT_FALSE(matches_channel("/down", "n3/up"));
  EXPECT_TRUE(matches_channel("n*/up", "n12/up"));    // glob over full name
  EXPECT_FALSE(matches_channel("n*/up", "n12/down"));
  EXPECT_FALSE(matches_channel("n*/up", "sw0->sw1"));
  EXPECT_TRUE(matches_channel("n?/up", "n3/up"));
  EXPECT_FALSE(matches_channel("n?/up", "n12/up"));   // ? is one character
  EXPECT_TRUE(matches_channel("sw0->sw*", "sw0->sw3"));
  EXPECT_TRUE(matches_channel("*", "anything"));
  EXPECT_TRUE(matches_channel("*/vm?/up", "rack1/vm3/up"));
}

/// Four nodes, two disjoint flows (n1 -> n0, n3 -> n2), a scripted mid-run
/// flap on the spec'd channel pattern. Returns the two completion times.
std::pair<SimTime, SimTime> run_flapped(const std::string& spec) {
  sim::Simulation sim;
  FabricConfig cfg;
  cfg.link_bytes_per_sec = 1e9;
  Fabric fabric(sim, cfg);
  std::vector<std::unique_ptr<hv::Node>> nodes;
  std::vector<Hca*> hcas;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(
        std::make_unique<hv::Node>(sim, "n" + std::to_string(i), 4));
    hcas.push_back(&fabric.add_node(*nodes.back()));
  }
  Peer s1 = make_peer(*nodes[1], *hcas[1], 256 * 1024);
  Peer d1 = make_peer(*nodes[0], *hcas[0], 256 * 1024);
  Peer s3 = make_peer(*nodes[3], *hcas[3], 256 * 1024);
  Peer d3 = make_peer(*nodes[2], *hcas[2], 256 * 1024);
  Fabric::connect(*s1.qp, *d1.qp);
  Fabric::connect(*s3.qp, *d3.qp);
  fault::FaultInjector injector(fault::FaultPlan::parse(spec), 42);
  injector.arm(fabric);
  SimTime done1 = 0, done3 = 0;
  sim.spawn(stream(s1, d1, 128 * 1024, 10, done1));
  sim.spawn(stream(s3, d3, 128 * 1024, 10, done3));
  sim.run();
  return {done1, done3};
}

TEST(MultiNodeFabric, FaultPlanGlobSelectsPerNodeChannels) {
  // Same reliable-transport mode in every run (the hook is always armed);
  // only the flap's channel pattern varies.
  const auto [base1, base3] = run_flapped("flap=0.2:0.3:zz/up");  // no match
  const auto [sel1, sel3] = run_flapped("flap=0.2:0.3:n1/up");
  const auto [all1, all3] = run_flapped("flap=0.2:0.3:n*/up");
  // The selective flap delays exactly the flow through n1's uplink.
  EXPECT_GT(sel1, base1);
  EXPECT_EQ(sel3, base3);
  // The glob flap takes down every node's uplink: both flows suffer.
  EXPECT_GT(all1, base1);
  EXPECT_GT(all3, base3);
}

}  // namespace
}  // namespace resex::fabric
