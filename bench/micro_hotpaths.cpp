// M1: microbenchmarks of the simulation hot paths (google-benchmark).
// These bound how much simulated time per wall second the figure benches
// can process: the event queue, coroutine scheduling, the packet loop and
// the pricing math dominate.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/experiment.hpp"
#include "fabric/channel.hpp"
#include "fabric/endpoint.hpp"
#include "fabric/fabric.hpp"
#include "fabric/types.hpp"
#include "finance/binomial.hpp"
#include "finance/black_scholes.hpp"
#include "hv/node.hpp"
#include "ibmon/ibmon.hpp"
#include "qos/config.hpp"
#include "routing/config.hpp"
#include "routing/table.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace resex;
using namespace resex::sim::literals;

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue q;
  std::uint64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      (void)q.push(t + static_cast<std::uint64_t>((i * 37) % 64), [] {});
    }
    while (!q.empty()) {
      auto ev = q.pop();
      benchmark::DoNotOptimize(ev.time);
    }
    t += 64;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPop);

// The same cycle with a 48-byte `[self, flag, packet]` capture, larger than
// the largest capture left on the hot path (Hca::complete_send's
// `[cq, cqe]`, 40 B). It pins sim::Callback's inline buffer: if the capture
// ever outgrows it, every push here allocates and this slows down.
void BM_EventQueuePushPopPacket(benchmark::State& state) {
  static_assert(sizeof(void*) + sizeof(std::uint64_t) +
                    sizeof(fabric::detail::Packet) <=
                sim::Callback::kInlineSize);
  sim::EventQueue q;
  std::uint64_t t = 0;
  std::uint64_t delivered = 0;
  auto transfer = fabric::detail::TransferRef::make();
  transfer->total_packets = 64;
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < 64; ++i) {
      fabric::detail::Packet pkt;
      pkt.transfer = transfer;
      pkt.index = i;
      pkt.bytes = 4096;
      const bool deliver = (i & 7) != 0;
      (void)q.push(t + (i * 37) % 64,
                   [self = &delivered, deliver, pkt = std::move(pkt)] {
                     if (deliver) *self += pkt.bytes;
                   });
    }
    while (!q.empty()) q.pop().fn();
    t += 64;
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPopPacket);

// The RTO pattern of a reliable transfer: arm a far timer, run a few near
// events (its packets), then cancel the timer once the transfer completes,
// long before it would fire. A queue that kept cancelled timers until their
// time came would carry kRto / kNear = 250k of them here.
void BM_EventQueueTimerChurn(benchmark::State& state) {
  constexpr std::uint64_t kRto = 1'000'000;  // 1 ms, in ns
  constexpr int kNear = 4;
  sim::EventQueue q;
  std::uint64_t t = 0;
  // A standing population of other live timers that never come due here.
  for (std::uint64_t i = 0; i < 16; ++i) {
    (void)q.push(~std::uint64_t{0} - i, [] {});
  }
  for (auto _ : state) {
    sim::EventHandle rto = q.push(t + kRto, [] {});
    for (int i = 0; i < kNear; ++i) {
      (void)q.push(t + static_cast<std::uint64_t>(i) + 1, [] {});
    }
    for (int i = 0; i < kNear; ++i) {
      auto ev = q.pop();
      benchmark::DoNotOptimize(ev.time);
    }
    rto.cancel();
    t += kNear;
  }
  state.counters["depth"] = static_cast<double>(q.size());
  state.SetItemsProcessed(state.iterations() * (kNear + 1));
}
BENCHMARK(BM_EventQueueTimerChurn);

// The fat-tree workload's event mix in steady state: each iteration pops the
// earliest event and posts one more, 95% of them at one of three fixed
// delays (propagation 200 ns, a trunk MTU's 476 ns, a host MTU's 953 ns),
// with ~25 near posts and 8 far RTO-style timers pending; every eighth
// iteration cancels the oldest timer and pushes a new one. Arg = lanes: 0
// leaves every post on the heap, 1 declares the three delays. Time per
// iteration is one post+pop.
void BM_EventQueueFixedDelayMix(benchmark::State& state) {
  constexpr sim::SimDuration kRto = 1'000'000;
  constexpr std::size_t kNear = 25;
  constexpr std::size_t kTimers = 8;
  constexpr std::size_t kPattern = 4096;
  sim::EventQueue q;
  if (state.range(0) != 0) {
    for (const sim::SimDuration d : {sim::SimDuration{200},
                                     sim::SimDuration{476},
                                     sim::SimDuration{953}}) {
      q.add_lane(d);
    }
  }
  // The delay sequence is drawn up front, keeping the RNG out of the loop.
  sim::Rng rng(1);
  std::vector<sim::SimDuration> delays(kPattern);
  for (auto& d : delays) {
    const std::uint64_t u = rng.uniform_u64(100);
    d = u < 47 ? 200 : u < 71 ? 953 : u < 95 ? 476 : 1 + rng.uniform_u64(2000);
  }
  const sim::PostFn nop = [](void*) {};
  sim::SimTime now = 0;
  std::vector<sim::EventHandle> timers(kTimers);
  for (std::size_t i = 0; i < kTimers; ++i) {
    timers[i] = q.push(now + kRto + i, [] {});
  }
  for (std::size_t i = 0; i < kNear; ++i) {
    q.post(now, delays[i], nop, nullptr);
  }
  std::size_t i = kNear;
  for (auto _ : state) {
    sim::Event ev;
    q.pop_due(~sim::SimTime{0}, ev);
    now = ev.time;
    benchmark::DoNotOptimize(ev.time);
    q.post(now, delays[i++ % kPattern], nop, nullptr);
    if (i % 8 == 0) {
      sim::EventHandle& rto = timers[(i / 8) % kTimers];
      rto.cancel();
      rto = q.push(now + kRto, [] {});
    }
  }
  state.counters["depth"] = static_cast<double>(q.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueFixedDelayMix)->Arg(0)->Arg(1);

void BM_SimulationDelayChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation s;
    s.spawn([](sim::Simulation& sim) -> sim::Task {
      for (int i = 0; i < 1000; ++i) co_await sim.delay(1_us);
    }(s));
    s.run();
    benchmark::DoNotOptimize(s.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulationDelayChain);

// The Channel datapath on one hop: enqueue, arbitration, launch,
// tx-complete and delivery into the sink, for 64 MTU packets of two
// interleaved QPs per iteration. Arg = lanes: 1 is the default single-lane
// port (per-QP WRR only), 2 puts the QPs on separate lanes behind the VL
// arbiter.
void BM_ChannelPacketCycle(benchmark::State& state) {
  const auto lanes = static_cast<std::uint8_t>(state.range(0));
  sim::Simulation sim;
  fabric::FabricConfig cfg;
  // Both lanes in the low table at equal weights: plain WRR between them.
  qos::QosConfig{.enabled = lanes > 1,
                 .num_vls = lanes,
                 .high_mask = 0,
                 .hi_limit = 0}
      .apply(cfg);
  fabric::Fabric fab(sim, cfg);
  hv::Node node{sim, "A", 8};
  fabric::Hca& hca = fab.add_node(node);
  hv::Domain& dom = node.create_domain({.name = "vm", .mem_pages = 2048});
  const std::uint32_t pd = hca.alloc_pd(dom);
  fabric::CompletionQueue& cq = hca.create_cq(dom, 16);
  fabric::detail::TransferRef transfers[2];
  for (std::uint8_t i = 0; i < 2; ++i) {
    transfers[i] = fabric::detail::TransferRef::make();
    transfers[i]->src_qp = &hca.create_qp(dom, pd, cq, cq);
    transfers[i]->vl = static_cast<std::uint8_t>(i % lanes);
  }
  fabric::Channel chan(sim, cfg, "bench");
  std::uint64_t delivered = 0;
  chan.set_sink(
      [](void* sum, fabric::detail::Packet&& pkt) {
        *static_cast<std::uint64_t*>(sum) += pkt.bytes;
      },
      &delivered);
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < 64; ++i) {
      chan.enqueue(fabric::detail::Packet{transfers[i % 2], i / 2,
                                          cfg.mtu_bytes});
    }
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ChannelPacketCycle)->Arg(1)->Arg(2);

// The kernel's half of a packet hop, as Channel drives it: each tx-complete
// post makes the delivery post one propagation delay out and the next
// tx-complete one MTU serialization out, 64 packets per iteration. Arg =
// lanes: 0 leaves both delays on the heap, 1 declares them. Items are
// events.
void BM_ChannelPostCycle(benchmark::State& state) {
  constexpr sim::SimDuration kProp = 200;
  constexpr sim::SimDuration kTx = 953;
  struct Port {
    sim::Simulation sim;
    std::uint32_t left = 0;
    std::uint64_t delivered = 0;
    static void tx_done(void* p) {
      auto* port = static_cast<Port*>(p);
      port->sim.post_in(kProp, &Port::deliver, p);
      if (--port->left > 0) port->sim.post_in(kTx, &Port::tx_done, p);
    }
    static void deliver(void* p) { ++static_cast<Port*>(p)->delivered; }
  };
  Port port;
  if (state.range(0) != 0) {
    port.sim.declare_fixed_delay(kProp);
    port.sim.declare_fixed_delay(kTx);
  }
  for (auto _ : state) {
    port.left = 64;
    port.sim.post_in(kTx, &Port::tx_done, &port);
    port.sim.run();
  }
  benchmark::DoNotOptimize(port.delivered);
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_ChannelPostCycle)->Arg(0)->Arg(1);

// The switch hop: 64 MTU packets of four QPs per iteration from a host
// uplink on leaf 0, through a spine, to a host downlink on leaf 1 of a
// 2-leaf, 2-spine fabric, so each packet makes three `Fabric::hop`s (leaf,
// spine, leaf) between four channels. Arg = routing::RouteMode: static
// takes the first spine, ECMP hashes each QP onto one, adaptive places each
// flow on the less-backlogged spine. The transfers never complete, so the
// destination HCA only counts arrivals. Items are packets; the difference to
// BM_ChannelPacketCycle/1 is the hops and the extra channels.
void BM_FabricHop(benchmark::State& state) {
  constexpr std::uint32_t kQps = 4;
  sim::Simulation sim;
  fabric::FabricConfig cfg;
  cfg.routing.mode = static_cast<routing::RouteMode>(state.range(0));
  fabric::Fabric fab(sim, cfg);
  const std::uint32_t leaf1 = fab.add_switch();
  for (std::uint32_t spine = 0; spine < 2; ++spine) {
    const std::uint32_t sw = fab.add_switch();
    fab.add_trunk(0, sw);
    fab.add_trunk(leaf1, sw);
    fab.add_route_candidate(0, leaf1, sw);
    fab.add_route_candidate(leaf1, 0, sw);
  }
  hv::Node node_a{sim, "A", 8};
  hv::Node node_b{sim, "B", 8};
  fabric::Hca& hca_a = fab.add_node(node_a, 0);
  fabric::Hca& hca_b = fab.add_node(node_b, leaf1);
  hv::Domain& dom_a = node_a.create_domain({.name = "a", .mem_pages = 2048});
  hv::Domain& dom_b = node_b.create_domain({.name = "b", .mem_pages = 2048});
  const std::uint32_t pd_a = hca_a.alloc_pd(dom_a);
  const std::uint32_t pd_b = hca_b.alloc_pd(dom_b);
  fabric::CompletionQueue& cq_a = hca_a.create_cq(dom_a, 16);
  fabric::CompletionQueue& cq_b = hca_b.create_cq(dom_b, 16);
  fabric::detail::TransferRef transfers[kQps];
  for (auto& t : transfers) {
    t = fabric::detail::TransferRef::make();
    t->src_qp = &hca_a.create_qp(dom_a, pd_a, cq_a, cq_a);
    t->dst_qp = &hca_b.create_qp(dom_b, pd_b, cq_b, cq_b);
    t->total_packets = ~std::uint32_t{0};
  }
  std::uint32_t index = 0;
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < 64; ++i, ++index) {
      hca_a.uplink().enqueue(fabric::detail::Packet{
          transfers[i % kQps], index / kQps, cfg.mtu_bytes});
    }
    sim.run();
  }
  benchmark::DoNotOptimize(hca_b.downlink().packets_sent());
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FabricHop)
    ->Arg(static_cast<int>(routing::RouteMode::kStatic))
    ->Arg(static_cast<int>(routing::RouteMode::kEcmp))
    ->Arg(static_cast<int>(routing::RouteMode::kAdaptive));

// One RDMA write of Arg bytes from post until Hca::start_transfer returns:
// the WQE pickup event, validation and segmentation onto the uplink. The
// uplink queues one run entry per message, so a 2 MB write (2048 packets)
// costs what a 4 KB one does. The transfer then drains untimed.
void BM_HcaStartTransfer(benchmark::State& state) {
  const auto bytes = static_cast<std::uint32_t>(state.range(0));
  sim::Simulation sim;
  fabric::Fabric fab(sim, fabric::FabricConfig{});
  hv::Node node_a{sim, "A", 8};
  hv::Node node_b{sim, "B", 8};
  fabric::Hca& hca_a = fab.add_node(node_a);
  fabric::Hca& hca_b = fab.add_node(node_b);
  const auto endpoint = [](hv::Node& node, fabric::Hca& hca, std::size_t len) {
    return fabric::make_endpoint(
        hca, node.create_domain({.name = "vm", .mem_pages = 2048}), len, 64);
  };
  fabric::Endpoint a = endpoint(node_a, hca_a, bytes);
  fabric::Endpoint b = endpoint(node_b, hca_b, bytes);
  fabric::Fabric::connect(*a.qp, *b.qp);
  fabric::SendWr wr;
  wr.opcode = fabric::Opcode::kRdmaWrite;
  wr.local_addr = a.buf;
  wr.lkey = a.mr.lkey;
  wr.length = bytes;
  wr.remote_addr = b.buf;
  wr.rkey = b.mr.rkey;
  for (auto _ : state) {
    hca_a.post_send(*a.qp, wr);
    sim.step();  // the pickup: process_wqe -> start_transfer
    benchmark::DoNotOptimize(hca_a.uplink().backlog_packets());
    state.PauseTiming();
    sim.run();
    while (a.send_cq->poll()) {
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HcaStartTransfer)->Arg(4096)->Arg(2 << 20)->Iterations(64);

// One RDMA write of Arg bytes on an idle two-host star, from post_send to
// its send CQE: the WQE pickup, both link hops and the completion. On this
// lossless star the message crosses as a packet train (DESIGN.md §5), so
// its events do not grow with its packets. Items are packets.
void BM_FabricStarWrite(benchmark::State& state) {
  const auto bytes = static_cast<std::uint32_t>(state.range(0));
  sim::Simulation sim;
  const fabric::FabricConfig cfg;
  fabric::Fabric fab(sim, cfg);
  hv::Node node_a{sim, "A", 8};
  hv::Node node_b{sim, "B", 8};
  fabric::Hca& hca_a = fab.add_node(node_a);
  fabric::Hca& hca_b = fab.add_node(node_b);
  const auto endpoint = [](hv::Node& node, fabric::Hca& hca, std::size_t len) {
    return fabric::make_endpoint(
        hca, node.create_domain({.name = "vm", .mem_pages = 2048}), len, 64);
  };
  fabric::Endpoint a = endpoint(node_a, hca_a, bytes);
  fabric::Endpoint b = endpoint(node_b, hca_b, bytes);
  fabric::Fabric::connect(*a.qp, *b.qp);
  fabric::SendWr wr;
  wr.opcode = fabric::Opcode::kRdmaWrite;
  wr.local_addr = a.buf;
  wr.lkey = a.mr.lkey;
  wr.length = bytes;
  wr.remote_addr = b.buf;
  wr.rkey = b.mr.rkey;
  for (auto _ : state) {
    hca_a.post_send(*a.qp, wr);
    sim.run();
    benchmark::DoNotOptimize(a.send_cq->poll());
  }
  state.SetItemsProcessed(state.iterations() * cfg.packets_for(bytes));
}
BENCHMARK(BM_FabricStarWrite)->Arg(4096)->Arg(64 << 10)->Arg(2 << 20);

// IBMon's scan of one full 4096-entry CQ ring (BenchEx's ring size) through
// the foreign mapping: IbMon::sample_now after the HCA wrote 4096 CQEs.
// Refilling the ring is untimed. Items are CQEs.
void BM_IbMonScan(benchmark::State& state) {
  constexpr std::uint32_t kEntries = 4096;
  sim::Simulation sim;
  fabric::Fabric fab(sim);
  hv::Node node(sim, "A", 4);
  fabric::Hca& hca = fab.add_node(node);
  hv::Domain& dom = node.create_domain({.name = "vm"});
  dom.memory().set_foreign_mappable(true);
  fabric::CompletionQueue& cq = hca.create_cq(dom, kEntries);
  ibmon::IbMon mon(sim);
  mon.watch_domain(dom, hca.domain_cqs(dom.id()));
  for (auto _ : state) {
    state.PauseTiming();
    while (cq.poll()) {
    }
    for (std::uint32_t i = 0; i < kEntries; ++i) {
      fabric::Cqe cqe;
      cqe.wr_id = i;
      cqe.qp_num = cq.id();
      cqe.byte_len = 64 * 1024;
      cqe.opcode =
          static_cast<std::uint8_t>(fabric::CqeOpcode::kSendComplete);
      cq.produce(cqe);
    }
    state.ResumeTiming();
    mon.sample_now();
  }
  state.SetItemsProcessed(state.iterations() * kEntries);
}
BENCHMARK(BM_IbMonScan);

// CreditScheduler::set_cap on the testbed's server node (8 PCPUs, dom0 and
// two guests): the cap change and the window re-layout it triggers, the
// work behind every IOShares adjustment. Items are calls.
void BM_CreditSchedulerSetCap(benchmark::State& state) {
  sim::Simulation sim;
  hv::Node node(sim, "A", 8);
  (void)node.create_domain({.name = "rep"});
  hv::Domain& intf = node.create_domain({.name = "intf"});
  std::uint64_t i = 0;
  for (auto _ : state) {
    node.scheduler().set_cap(intf.vcpu(), 10.0 + static_cast<double>(i % 90));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CreditSchedulerSetCap);

void BM_RngNextU64(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngNextU64);

void BM_RngNormal(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal());
}
BENCHMARK(BM_RngNormal);

void BM_BlackScholesPrice(benchmark::State& state) {
  const finance::OptionSpec o;
  for (auto _ : state) benchmark::DoNotOptimize(finance::price(o));
}
BENCHMARK(BM_BlackScholesPrice);

void BM_Greeks(benchmark::State& state) {
  const finance::OptionSpec o;
  for (auto _ : state) benchmark::DoNotOptimize(finance::greeks(o).vega);
}
BENCHMARK(BM_Greeks);

void BM_ImpliedVol(benchmark::State& state) {
  const finance::OptionSpec o;
  const double p = finance::price(o);
  for (auto _ : state) {
    benchmark::DoNotOptimize(finance::implied_vol(o, p));
  }
}
BENCHMARK(BM_ImpliedVol);

void BM_Binomial(benchmark::State& state) {
  const finance::OptionSpec o;
  const int steps = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        finance::binomial_price(o, steps, finance::ExerciseStyle::kAmerican));
  }
}
BENCHMARK(BM_Binomial)->Arg(64)->Arg(256);

void BM_RoutingNextHopLookup(benchmark::State& state) {
  // The per-packet forwarding decision: one dense-table lookup plus the
  // flow-consistent ECMP hash, on a 16-switch fabric with 4 equal-cost
  // candidates per (at, dst) pair.
  constexpr std::uint32_t kSwitches = 16;
  constexpr std::uint32_t kSpines = 4;
  int ports[kSpines] = {};
  routing::NextHopTable<int> table;
  for (std::uint32_t at = 0; at < kSwitches; ++at) {
    for (std::uint32_t dst = 0; dst < kSwitches; ++dst) {
      if (at == dst) continue;
      for (std::uint32_t k = 0; k < kSpines; ++k) {
        table.add(at, dst, {(dst + k) % kSpines, &ports[(dst + k) % kSpines]});
      }
    }
  }
  table.compile(kSwitches);
  std::uint32_t qp = 0;
  for (auto _ : state) {
    const std::uint32_t at = qp % kSwitches;
    const std::uint32_t dst = (qp * 7 + 3) % kSwitches;
    if (at == dst) {
      ++qp;
      continue;
    }
    const auto span = table.lookup(at, dst);
    const auto pick = routing::ecmp_hash(qp, 1, 1) % span.count;
    benchmark::DoNotOptimize(span[pick].via);
    ++qp;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RoutingNextHopLookup);

void BM_ScenarioSimulatedSecondPerWallTime(benchmark::State& state) {
  // Full-system rate: one 200 ms base-case scenario per iteration.
  for (auto _ : state) {
    core::ScenarioConfig cfg;
    cfg.warmup = 20_ms;
    cfg.duration = 180_ms;
    cfg.with_interferer = true;
    benchmark::DoNotOptimize(
        core::run_scenario(cfg).reporting[0].client_mean_us);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScenarioSimulatedSecondPerWallTime)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
