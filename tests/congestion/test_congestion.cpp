// resex::congestion coverage: finite switch buffers tail-drop at capacity and
// the RC transport recovers; ECN marks propagate through the destination HCA
// into paced CNPs, multiplicative rate cuts and staged recovery at the
// senders; the scripted buffer-squeeze fault shrinks matching ports for its
// window only; congested runs stay deterministic; and the cluster layer
// prices congestion into node quotes so the broker steers placement away
// from hot ports.

#include "congestion/dcqcn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "../fabric/fabric_fixture.hpp"
#include "cluster/broker.hpp"
#include "cluster/migration.hpp"
#include "cluster/topology.hpp"
#include "core/cluster_exchange.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"

namespace resex::congestion {
namespace {

using fabric::Cqe;
using fabric::CqeStatus;
using fabric::Opcode;
using fabric::SendWr;
using fabric::Endpoint;
using fabric::testing::make_endpoint_on;
using sim::SimTime;
using sim::Task;

/// N sender nodes streaming into one sink node: the canonical incast that
/// pressures the sink's switch-egress downlink.
struct IncastWorld {
  sim::Simulation sim;
  fabric::FabricConfig cfg;
  std::unique_ptr<fabric::Fabric> fabric;
  std::vector<std::unique_ptr<hv::Node>> nodes;
  std::vector<fabric::Hca*> hcas;
  std::vector<Endpoint> sources, sinks;

  IncastWorld(int senders, const CongestionConfig& congestion) {
    cfg = fabric::testing::test_config();
    congestion.apply(cfg);
    fabric = std::make_unique<fabric::Fabric>(sim, cfg);
    nodes.push_back(std::make_unique<hv::Node>(
        sim, "n0", static_cast<std::uint32_t>(senders) + 2));
    hcas.push_back(&fabric->add_node(*nodes.back()));
    for (int i = 1; i <= senders; ++i) {
      nodes.push_back(
          std::make_unique<hv::Node>(sim, "n" + std::to_string(i), 4));
      hcas.push_back(&fabric->add_node(*nodes.back()));
    }
    for (int i = 0; i < senders; ++i) {
      sources.push_back(make_endpoint_on(*nodes[static_cast<std::size_t>(i) +
                                                1],
                                         *hcas[static_cast<std::size_t>(i) +
                                               1],
                                         "src" + std::to_string(i)));
      sinks.push_back(make_endpoint_on(*nodes[0], *hcas[0],
                                       "dst" + std::to_string(i)));
      fabric::Fabric::connect(*sources.back().qp, *sinks.back().qp);
    }
  }

  [[nodiscard]] fabric::Channel& congested_port() {
    return hcas[0]->downlink();
  }
  [[nodiscard]] std::uint64_t retransmits() {
    return sim.metrics().counter("fabric.retransmits").value();
  }
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

struct IncastResult {
  std::vector<std::vector<SimTime>> times;
  std::uint64_t drops = 0;
  std::uint64_t marks = 0;
  std::uint64_t retx = 0;
  std::uint64_t cnps = 0;
  std::uint64_t rate_cuts = 0;
  bool all_success = true;
};

IncastResult run_incast(int senders, int msgs, std::uint32_t bytes,
                        const CongestionConfig& congestion) {
  IncastWorld w(senders, congestion);
  std::unique_ptr<RateController> ctrl;
  if (congestion.rate_control) {
    ctrl = std::make_unique<RateController>(*w.fabric, congestion.dcqcn);
  }
  std::vector<std::vector<Cqe>> cqes(static_cast<std::size_t>(senders));
  IncastResult r;
  r.times.resize(static_cast<std::size_t>(senders));
  for (int i = 0; i < senders; ++i) {
    w.sim.spawn(send_many(w.sources[static_cast<std::size_t>(i)],
                          w.sinks[static_cast<std::size_t>(i)], msgs, bytes,
                          cqes[static_cast<std::size_t>(i)],
                          r.times[static_cast<std::size_t>(i)]));
  }
  w.sim.run();
  for (const auto& per_flow : cqes) {
    for (const auto& cqe : per_flow) {
      r.all_success = r.all_success &&
                      cqe.status ==
                          static_cast<std::uint8_t>(CqeStatus::kSuccess);
    }
  }
  r.drops = w.congested_port().buf_drops();
  r.marks = w.congested_port().ecn_marks();
  r.retx = w.retransmits();
  if (ctrl) {
    r.cnps = ctrl->cnps();
    r.rate_cuts = ctrl->rate_cuts();
  }
  return r;
}

CongestionConfig taildrop_config(std::uint32_t buffer) {
  CongestionConfig c;
  c.buffer_pkts = buffer;
  return c;
}

CongestionConfig ecn_config(std::uint32_t buffer) {
  CongestionConfig c;
  c.buffer_pkts = buffer;
  c.ecn_kmin = buffer / 4;
  c.ecn_kmax = buffer / 2;
  c.rate_control = true;
  return c;
}

// --- fabric-level behaviour --------------------------------------------------

TEST(Congestion, DefaultConfigStaysLossless) {
  const auto r = run_incast(4, 10, 16 * 1024, CongestionConfig{});
  EXPECT_TRUE(r.all_success);
  EXPECT_EQ(r.drops, 0u);
  EXPECT_EQ(r.marks, 0u);
  EXPECT_EQ(r.retx, 0u);
}

TEST(Congestion, TailDropAtCapacityIsRecoveredByRcTransport) {
  const auto r = run_incast(4, 20, 16 * 1024, taildrop_config(16));
  // The 4:1 burst overruns a 16-packet egress buffer; every drop is repaired
  // by NAK/RTO and every WR still completes successfully.
  EXPECT_GT(r.drops, 0u);
  EXPECT_GT(r.retx, 0u);
  EXPECT_TRUE(r.all_success);
  EXPECT_EQ(r.marks, 0u);  // no ECN configured
}

TEST(Congestion, EcnMarksBecomeCnpsAndRateCuts) {
  const auto r = run_incast(4, 40, 16 * 1024, ecn_config(32));
  EXPECT_TRUE(r.all_success);
  EXPECT_GT(r.marks, 0u);
  EXPECT_GT(r.cnps, 0u);
  EXPECT_GT(r.rate_cuts, 0u);
  // Pacing: marks arrive far faster than one per flow per cnp_interval, so
  // CNP generation must stay well below the mark count.
  EXPECT_LT(r.cnps, r.marks);
}

TEST(Congestion, SendersAreThrottledMidRunAndRatesRespectTheFloor) {
  // Harsh marking so cuts keep coming: tiny buffer, kmin=1, kmax=2.
  CongestionConfig congestion;
  congestion.buffer_pkts = 8;
  congestion.ecn_kmin = 1;
  congestion.ecn_kmax = 2;
  congestion.rate_control = true;
  IncastWorld w(6, congestion);
  RateController ctrl(*w.fabric, congestion.dcqcn);
  std::vector<std::vector<Cqe>> cqes(6);
  std::vector<std::vector<SimTime>> times(6);
  for (int i = 0; i < 6; ++i) {
    w.sim.spawn(send_many(w.sources[static_cast<std::size_t>(i)],
                          w.sinks[static_cast<std::size_t>(i)], 60, 16 * 1024,
                          cqes[static_cast<std::size_t>(i)],
                          times[static_cast<std::size_t>(i)]));
  }
  // Sample the controller while the incast is in flight.
  std::size_t max_capped = 0;
  bool floor_held = true;
  for (int tick = 1; tick <= 40; ++tick) {
    w.sim.run_until(static_cast<SimTime>(tick) * 200 * sim::kMicrosecond);
    std::size_t capped = 0;
    for (const auto& src : w.sources) {
      const double rate = ctrl.current_rate(src.qp->num());
      if (rate > 0.0) {
        ++capped;
        floor_held = floor_held && rate >= congestion.dcqcn.min_rate;
      }
    }
    max_capped = std::max(max_capped, capped);
  }
  w.sim.run();
  EXPECT_GT(ctrl.rate_cuts(), 0u);
  EXPECT_GT(max_capped, 0u);  // somebody was throttled mid-run
  EXPECT_TRUE(floor_held);    // but never below min_rate
  for (const auto& per_flow : cqes) {
    for (const auto& cqe : per_flow) {
      EXPECT_EQ(cqe.status, static_cast<std::uint8_t>(CqeStatus::kSuccess));
    }
  }
}

TEST(Congestion, CnpPacingBoundsFeedbackRate) {
  const int senders = 4;
  CongestionConfig congestion = ecn_config(32);
  IncastWorld w(senders, congestion);
  RateController ctrl(*w.fabric, congestion.dcqcn);
  std::vector<std::vector<Cqe>> cqes(senders);
  std::vector<std::vector<SimTime>> times(senders);
  for (int i = 0; i < senders; ++i) {
    w.sim.spawn(send_many(w.sources[static_cast<std::size_t>(i)],
                          w.sinks[static_cast<std::size_t>(i)], 40, 16 * 1024,
                          cqes[static_cast<std::size_t>(i)],
                          times[static_cast<std::size_t>(i)]));
  }
  w.sim.run();
  // At most one CNP per flow per cnp_interval: ceil(elapsed/interval) each.
  const auto elapsed = w.sim.now();
  const std::uint64_t per_flow_max =
      static_cast<std::uint64_t>(elapsed) /
          static_cast<std::uint64_t>(congestion.dcqcn.cnp_interval) +
      1;
  EXPECT_GT(ctrl.cnps(), 0u);
  EXPECT_LE(ctrl.cnps(), per_flow_max * senders);
}

TEST(Congestion, EcnWithRateControlBeatsTailDropAtEqualBuffer) {
  // The acceptance headline at test scale: same 32-packet buffer, same
  // offered load — end-to-end rate control must slash drops and the
  // retransmission storm they cause.
  const auto taildrop = run_incast(8, 20, 16 * 1024, taildrop_config(32));
  const auto ecn = run_incast(8, 20, 16 * 1024, ecn_config(32));
  ASSERT_TRUE(taildrop.all_success);
  ASSERT_TRUE(ecn.all_success);
  EXPECT_GT(taildrop.drops, 0u);
  EXPECT_LT(ecn.drops, taildrop.drops / 2);
  EXPECT_LT(ecn.retx, taildrop.retx);
}

TEST(Congestion, CongestedIncastIsDeterministic) {
  const auto once = [] { return run_incast(4, 30, 16 * 1024, ecn_config(16)); };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.times, b.times);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.marks, b.marks);
  EXPECT_EQ(a.retx, b.retx);
  EXPECT_EQ(a.cnps, b.cnps);
  EXPECT_EQ(a.rate_cuts, b.rate_cuts);
}

// --- buffer-squeeze fault ----------------------------------------------------

TEST(Congestion, SqueezeFaultDropsOnMatchingPortDuringWindowOnly) {
  const auto run_squeezed = [](const std::string& spec) {
    IncastWorld w(4, CongestionConfig{});  // lossless baseline config
    fault::FaultInjector injector(fault::FaultPlan::parse(spec), 42);
    injector.arm(*w.fabric);
    std::vector<std::vector<Cqe>> cqes(4);
    std::vector<std::vector<SimTime>> times(4);
    for (int i = 0; i < 4; ++i) {
      w.sim.spawn(send_many(w.sources[static_cast<std::size_t>(i)],
                            w.sinks[static_cast<std::size_t>(i)], 20,
                            16 * 1024, cqes[static_cast<std::size_t>(i)],
                            times[static_cast<std::size_t>(i)]));
    }
    w.sim.run();
    for (const auto& per_flow : cqes) {
      for (const auto& cqe : per_flow) {
        EXPECT_EQ(cqe.status,
                  static_cast<std::uint8_t>(CqeStatus::kSuccess));
      }
    }
    return std::pair{w.congested_port().buf_drops(), w.retransmits()};
  };
  // 4-packet buffer on the sink's downlink for the whole run window.
  const auto [hit_drops, hit_retx] = run_squeezed("squeeze=0:50:4:n0/down");
  EXPECT_GT(hit_drops, 0u);
  EXPECT_GT(hit_retx, 0u);
  // Same plan aimed at a channel that does not exist: nothing drops.
  const auto [miss_drops, miss_retx] = run_squeezed("squeeze=0:50:4:zz/down");
  EXPECT_EQ(miss_drops, 0u);
  EXPECT_EQ(miss_retx, 0u);
  // Window already over when the traffic starts flowing: the squeeze that
  // matched everything must not have dropped anything either.
  IncastWorld late(4, CongestionConfig{});
  fault::FaultInjector injector(
      fault::FaultPlan::parse("squeeze=0:0.001:4:n0/down"), 42);
  injector.arm(*late.fabric);
  std::vector<Cqe> cqes;
  std::vector<SimTime> times;
  late.sim.spawn([](sim::Simulation& sim, Endpoint& src, Endpoint& dst,
                    std::vector<Cqe>& out,
                    std::vector<SimTime>& ts) -> Task {
    co_await sim.delay(5 * sim::kMillisecond);  // start after the window
    co_await send_many(src, dst, 20, 16 * 1024, out, ts);
  }(late.sim, late.sources[0], late.sinks[0], cqes, times));
  late.sim.run();
  EXPECT_EQ(late.congested_port().buf_drops(), 0u);
}

// --- congestion-path accounting regressions ----------------------------------

TEST(Congestion, SqueezeWithoutCongestionDropsWithoutMarkingAndSurfacesMetric) {
  // A buffer squeeze on a fabric with *no* congestion configured: the port
  // must tail-drop (that is the fault), but it must never ECN-mark — there
  // is no marker configured and no controller to react — and the drops must
  // still show up in the fabric-wide metric even though the congestion
  // gauges were never registered.
  IncastWorld w(4, CongestionConfig{});
  fault::FaultInjector injector(
      fault::FaultPlan::parse("squeeze=0:50:4:n0/down"), 42);
  injector.arm(*w.fabric);
  std::vector<std::vector<Cqe>> cqes(4);
  std::vector<std::vector<SimTime>> times(4);
  for (int i = 0; i < 4; ++i) {
    w.sim.spawn(send_many(w.sources[static_cast<std::size_t>(i)],
                          w.sinks[static_cast<std::size_t>(i)], 20, 16 * 1024,
                          cqes[static_cast<std::size_t>(i)],
                          times[static_cast<std::size_t>(i)]));
  }
  w.sim.run();
  auto& port = w.congested_port();
  ASSERT_GT(port.buf_drops(), 0u);
  EXPECT_EQ(port.ecn_marks(), 0u);
  EXPECT_EQ(w.sim.metrics().counter("fabric.ecn_marks").value(), 0u);
  EXPECT_EQ(w.sim.metrics().counter("fabric.buf_drops").value(),
            port.buf_drops());
}

TEST(Congestion, TailDropsCountInPacketsDroppedAndOccupancySeesEveryArrival) {
  // Tail drops are packet drops: the per-channel packets_dropped counter
  // (the one the fault layer and the gauges export) must include them, and
  // the occupancy histogram must observe the occupancy every arrival found —
  // admitted or dropped — or the distribution is biased low under loss.
  IncastWorld w(4, taildrop_config(16));
  std::vector<std::vector<Cqe>> cqes(4);
  std::vector<std::vector<SimTime>> times(4);
  for (int i = 0; i < 4; ++i) {
    w.sim.spawn(send_many(w.sources[static_cast<std::size_t>(i)],
                          w.sinks[static_cast<std::size_t>(i)], 20, 16 * 1024,
                          cqes[static_cast<std::size_t>(i)],
                          times[static_cast<std::size_t>(i)]));
  }
  w.sim.run();
  auto& port = w.congested_port();
  ASSERT_GT(port.buf_drops(), 0u);
  EXPECT_EQ(port.packets_dropped(), port.buf_drops());
  // All switch ports share the fabric-wide histogram, and a drained run has
  // admitted == sent: the sample count is exactly arrivals = sent + dropped.
  std::uint64_t arrivals = 0;
  for (auto* hca : w.hcas) {
    arrivals += hca->downlink().packets_sent() + hca->downlink().buf_drops();
  }
  EXPECT_EQ(
      w.sim.metrics().histogram("fabric.port_occupancy_pkts").count(),
      arrivals);
}

TEST(Congestion, QpErrorClearsRateCapAndForgetsFlowMidEpisode) {
  // Destroying a capped flow mid-episode: on_qp_error must clear the uplink
  // limiter, cancel the recovery timers and erase the flow. The armed timers
  // then fire as no-ops (they re-look the flow up by QpNum) instead of
  // touching freed Flow state — ASan catches the pre-fix dangling reference.
  CongestionConfig congestion;
  congestion.buffer_pkts = 8;
  congestion.ecn_kmin = 1;
  congestion.ecn_kmax = 2;
  congestion.rate_control = true;
  IncastWorld w(4, congestion);
  RateController ctrl(*w.fabric, congestion.dcqcn);
  std::vector<std::vector<Cqe>> cqes(4);
  std::vector<std::vector<SimTime>> times(4);
  for (int i = 0; i < 4; ++i) {
    w.sim.spawn(send_many(w.sources[static_cast<std::size_t>(i)],
                          w.sinks[static_cast<std::size_t>(i)], 60, 16 * 1024,
                          cqes[static_cast<std::size_t>(i)],
                          times[static_cast<std::size_t>(i)]));
  }
  // Run until at least one sender is capped (harsh marking guarantees it
  // quickly), then error that QP while its recovery timers are armed.
  fabric::QueuePair* victim = nullptr;
  for (int tick = 1; tick <= 50 && victim == nullptr; ++tick) {
    w.sim.run_until(static_cast<SimTime>(tick) * 100 * sim::kMicrosecond);
    for (const auto& src : w.sources) {
      if (ctrl.current_rate(src.qp->num()) > 0.0) {
        victim = src.qp;
        break;
      }
    }
  }
  ASSERT_NE(victim, nullptr) << "no sender was ever rate-capped";
  auto& uplink = victim->hca().uplink();
  ASSERT_GT(uplink.flow_rate_limit(victim->num()), 0.0);
  ctrl.on_qp_error(*victim);
  EXPECT_EQ(ctrl.current_rate(victim->num()), 0.0);
  EXPECT_EQ(uplink.flow_rate_limit(victim->num()), 0.0);
  ctrl.on_qp_error(*victim);  // a second teardown of the same QP is a no-op
  // Drain the run: the cancelled/orphaned timers must not resurrect the
  // flow or crash, and the remaining senders finish normally.
  w.sim.run();
  EXPECT_EQ(ctrl.current_rate(victim->num()), 0.0);
}

TEST(Congestion, RetryExhaustionUnderRateControlTearsDownTheFlow) {
  // End-to-end teardown path: a capped sender's link flaps for longer than
  // the whole retry ladder, the transport errors the QP, and fail_qp must
  // notify the controller — the dead flow's uplink cap is removed and its
  // timers never fire into freed state.
  CongestionConfig congestion;
  congestion.buffer_pkts = 8;
  congestion.ecn_kmin = 1;
  congestion.ecn_kmax = 2;
  congestion.rate_control = true;
  IncastWorld w(4, congestion);
  RateController ctrl(*w.fabric, congestion.dcqcn);
  // n1's uplink dies at 3 ms for 10 s: long past the backoff ladder.
  fault::FaultInjector injector(
      fault::FaultPlan::parse("flap=3:10000:n1/up"), 42);
  injector.arm(*w.fabric);
  std::vector<std::vector<Cqe>> cqes(4);
  std::vector<std::vector<SimTime>> times(4);
  for (int i = 0; i < 4; ++i) {
    w.sim.spawn(send_many(w.sources[static_cast<std::size_t>(i)],
                          w.sinks[static_cast<std::size_t>(i)], 200, 16 * 1024,
                          cqes[static_cast<std::size_t>(i)],
                          times[static_cast<std::size_t>(i)]));
  }
  w.sim.run();
  // Source 0 lives on n1 (IncastWorld numbers senders from n1): it must
  // have died with the flap...
  fabric::QueuePair& dead = *w.sources[0].qp;
  EXPECT_EQ(dead.state(), fabric::QpState::kError);
  // ...and the controller must have forgotten it: no residual cap on the
  // uplink, no flow state left behind.
  EXPECT_EQ(ctrl.current_rate(dead.num()), 0.0);
  EXPECT_EQ(dead.hca().uplink().flow_rate_limit(dead.num()), 0.0);
  // The surviving senders completed every WR.
  for (std::size_t i = 1; i < 4; ++i) {
    for (const auto& cqe : cqes[i]) {
      EXPECT_EQ(cqe.status, static_cast<std::uint8_t>(CqeStatus::kSuccess));
    }
  }
}

// --- cluster pricing ---------------------------------------------------------

TEST(Congestion, ExchangeBlendsCongestionIntoPriceAndAvoidsHotNodes) {
  core::ClusterExchange ex;
  core::NodePriceQuote hot;
  hot.node_id = 0;
  hot.io_price = 0.2;
  hot.cpu_price = 0.2;
  hot.congestion_price = 0.8;
  hot.free_pcpus = 4;
  core::NodePriceQuote cool = hot;
  cool.node_id = 1;
  cool.congestion_price = 0.0;
  ex.post(hot);
  ex.post(cool);
  // Default weights: congestion enters at 0.75 per unit.
  EXPECT_DOUBLE_EQ(core::ClusterExchange::blended(hot),
                   core::ClusterExchange::blended(cool) + 0.75 * 0.8);
  const auto* pick = ex.cheapest(1, ~std::uint32_t{0});
  ASSERT_NE(pick, nullptr);
  EXPECT_EQ(pick->node_id, 1u);
  // With the congestion weight zeroed the tie breaks to the lowest id.
  const auto* blind = ex.cheapest(1, ~std::uint32_t{0}, 1.0, 0.25, 0.0);
  ASSERT_NE(blind, nullptr);
  EXPECT_EQ(blind->node_id, 0u);
}

TEST(Congestion, BrokerQuotesCongestionPriceFromLiveCounters) {
  cluster::ClusterConfig cc;
  cc.nodes = 4;
  cc.pcpus_per_node = 4;
  cc.fabric.port_buffer_pkts = 16;
  cc.fabric.ecn_kmin_pkts = 4;
  cc.fabric.ecn_kmax_pkts = 12;
  cluster::Cluster cluster(cc);
  auto& sim = cluster.sim();
  core::ClusterExchange exchange;
  cluster::MigrationEngine engine(cluster);
  cluster::ClusterBroker broker(cluster, exchange, engine);
  broker.start();

  // 3:1 incast into n0's downlink, big enough to outlast several broker
  // quote periods.
  std::vector<Endpoint> sources, sinks;
  std::vector<std::vector<Cqe>> cqes(3);
  std::vector<std::vector<SimTime>> times(3);
  // Create every endpoint before spawning: the coroutines hold references
  // into these vectors, so they must not reallocate afterwards.
  for (int i = 0; i < 3; ++i) {
    sources.push_back(make_endpoint_on(cluster.node(static_cast<std::uint32_t>(
                                           i + 1)),
                                       cluster.hca(static_cast<std::uint32_t>(
                                           i + 1)),
                                       "src" + std::to_string(i)));
    sinks.push_back(make_endpoint_on(cluster.node(0), cluster.hca(0),
                                     "dst" + std::to_string(i)));
    fabric::Fabric::connect(*sources.back().qp, *sinks.back().qp);
  }
  for (int i = 0; i < 3; ++i) {
    sim.spawn(send_many(sources[static_cast<std::size_t>(i)],
                        sinks[static_cast<std::size_t>(i)], 600, 16 * 1024,
                        cqes[static_cast<std::size_t>(i)],
                        times[static_cast<std::size_t>(i)]));
  }
  sim.run_until(35 * sim::kMillisecond);

  const auto* congested = exchange.quote(0);
  ASSERT_NE(congested, nullptr);
  EXPECT_GT(congested->congestion_price, 0.0);
  // The sender nodes' downlinks carry only ack-sized traffic: their quotes
  // must price congestion lower than the incast victim's.
  for (std::uint32_t n = 1; n < 4; ++n) {
    const auto* q = exchange.quote(n);
    ASSERT_NE(q, nullptr) << "node " << n;
    EXPECT_LT(q->congestion_price, congested->congestion_price)
        << "node " << n;
  }
}

}  // namespace
}  // namespace resex::congestion
