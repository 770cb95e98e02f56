// M1: microbenchmarks of the simulation hot paths (google-benchmark).
// These bound how much simulated time per wall second the figure benches
// can process: the event queue, coroutine scheduling, the packet loop and
// the pricing math dominate.

#include <benchmark/benchmark.h>

#include "core/experiment.hpp"
#include "fabric/channel.hpp"
#include "fabric/hca.hpp"
#include "fabric/types.hpp"
#include "finance/binomial.hpp"
#include "finance/black_scholes.hpp"
#include "hv/node.hpp"
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

// The same cycle with a 56-byte `[self, flag, packet]` capture, larger than
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
  auto transfer = std::make_shared<fabric::detail::Transfer>();
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
  if (lanes > 1) {
    cfg.qos_enabled = true;
    cfg.num_vls = lanes;
  }
  fabric::Fabric fab(sim, cfg);
  hv::Node node{sim, "A", 8};
  fabric::Hca& hca = fab.add_node(node);
  hv::Domain& dom = node.create_domain({.name = "vm", .mem_pages = 2048});
  const std::uint32_t pd = hca.alloc_pd(dom);
  fabric::CompletionQueue& cq = hca.create_cq(dom, 16);
  std::shared_ptr<fabric::detail::Transfer> transfers[2];
  for (std::uint8_t i = 0; i < 2; ++i) {
    transfers[i] = std::make_shared<fabric::detail::Transfer>();
    transfers[i]->src_qp = &hca.create_qp(dom, pd, cq, cq);
    transfers[i]->vl = static_cast<std::uint8_t>(i % lanes);
  }
  fabric::Channel chan(sim, cfg, "bench");
  std::uint64_t delivered = 0;
  chan.set_sink([&delivered](fabric::detail::Packet pkt) {
    delivered += pkt.bytes;
  });
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
