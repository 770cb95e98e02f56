// Packet trains (DESIGN.md §5) against packet mode. A simulation whose
// tracer is on never opens a train, so a traced run is the packet-mode
// reference: every world here runs twice, untraced and traced, and every
// CQE (time, QP, wr_id, status), every metrics snapshot and every channel's
// final counters must be the same in both.
//
// The worlds are one-switch stars of 2-8 hosts with several QPs per host,
// open- and closed-loop posters, several senders into one downlink, and
// snapshots taken both inside events and between run_until() chunks. Times
// sit on a coarse grid, so events of different flows often share an
// instant. The constructed cases put another flow's run, a snapshot and
// another feeder's packet exactly on instants a train computes.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fabric_fixture.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace resex::fabric {
namespace {

using testing::expect_drained;
using testing::make_endpoint_on;

constexpr std::uint32_t kMtu = 1024;
constexpr std::size_t kBuf = 4u * 1024 * 1024;

SendWr write_wr(const Endpoint& a, const Endpoint& b, std::uint32_t length,
                std::uint64_t wr_id) {
  SendWr wr;
  wr.wr_id = wr_id;
  wr.opcode = Opcode::kRdmaWrite;
  wr.local_addr = a.buf;
  wr.lkey = a.mr.lkey;
  wr.length = length;
  wr.remote_addr = b.buf;
  wr.rkey = b.mr.rkey;
  return wr;
}

/// A star of `hosts` nodes whose run is recorded as text: CQEs as they are
/// polled, snapshots as they are taken, final channel counters at the end.
struct Star {
  sim::Simulation sim;
  std::vector<std::unique_ptr<hv::Node>> nodes;
  Fabric fabric;
  std::vector<Hca*> hcas;
  std::string log;

  Star(std::size_t hosts, FabricConfig cfg, bool traced) : fabric(sim, cfg) {
    if (traced) sim.tracer().enable(1u << 12);
    for (std::size_t i = 0; i < hosts; ++i) {
      nodes.push_back(
          std::make_unique<hv::Node>(sim, "H" + std::to_string(i), 8));
      hcas.push_back(&fabric.add_node(*nodes.back()));
    }
  }

  /// A connected QP pair from host `src` to host `dst`.
  std::pair<Endpoint, Endpoint> pair(std::size_t src, std::size_t dst,
                                     const std::string& name) {
    Endpoint a = make_endpoint_on(*nodes[src], *hcas[src], name + "a", kBuf);
    Endpoint b = make_endpoint_on(*nodes[dst], *hcas[dst], name + "b", kBuf);
    Fabric::connect(*a.qp, *b.qp);
    return {std::move(a), std::move(b)};
  }

  /// The registry, then what the channel accessors read.
  void snapshot(const char* where) {
    log += where;
    log += obs::to_json(sim.metrics().snapshot(sim.now()));
    for (Hca* h : hcas) {
      for (const Channel* c : {&h->uplink(), &h->downlink()}) {
        log += c->busy() ? " B" : " -";
        log += std::to_string(c->backlog_bytes());
      }
    }
    log += '\n';
  }

  void record(const Cqe& c) {
    log += "cqe t=" + std::to_string(sim.now()) +
           " ts=" + std::to_string(c.timestamp_ns) +
           " qp=" + std::to_string(c.qp_num) +
           " wr=" + std::to_string(c.wr_id) +
           " st=" + std::to_string(c.status) + '\n';
  }

  void drain_cq(CompletionQueue& cq) {
    while (const auto c = cq.poll()) record(*c);
  }

  void finish() {
    for (Hca* h : hcas) {
      for (const Channel* c : {&h->uplink(), &h->downlink()}) {
        log += c->name() + " sent=" + std::to_string(c->packets_sent()) +
               " bytes=" + std::to_string(c->bytes_sent()) +
               " busy=" + std::to_string(c->busy_time()) + '\n';
      }
    }
    log += "hops=" +
           std::to_string(sim.metrics().counter("fabric.switch_hops").value()) +
           '\n';
  }
};

/// A sender that posts its next message `think` after polling the last
/// one's completion, polling every `poll` ns.
struct ClosedLoop {
  Star* star;
  Endpoint a, b;
  std::vector<std::uint32_t> sizes;
  sim::SimDuration poll = 0;
  sim::SimDuration think = 0;
  std::size_t next = 0;

  void post() {
    a.qp->hca().post_send(*a.qp, write_wr(a, b, sizes[next], next));
    ++next;
    star->sim.schedule_in(poll, [this] { check(); });
  }
  void check() {
    if (const auto c = a.send_cq->poll()) {
      star->record(*c);
      if (next < sizes.size()) star->sim.schedule_in(think, [this] { post(); });
      return;
    }
    star->sim.schedule_in(poll, [this] { check(); });
  }
};

/// Message sizes: tiny, around one MTU and the propagation time, and up to
/// 4 MB, MTU multiples and not.
std::uint32_t pick_size(sim::Rng& rng) {
  static constexpr std::uint32_t kSizes[] = {
      1,     100,   200,    201,    1000,   1023,    1024,    1025,
      2048,  3000,  4096,   10000,  65535,  65536,   100000,  262144,
      300000, 1048576, 2097152, 4194303, 4194304};
  return kSizes[rng.uniform_u64(std::size(kSizes))];
}

struct RunStats {
  std::string log;
  std::uint64_t events = 0;
};

/// One random world, run traced or not: its transcript and event count.
RunStats run_random_world(std::uint64_t seed, bool traced) {
  sim::Rng rng(seed);
  static constexpr double kRates[] = {1e9, 1024.0 * 1024.0 * 1024.0, 2e9,
                                      0.8e9};
  FabricConfig cfg;
  cfg.link_bytes_per_sec = kRates[rng.uniform_u64(std::size(kRates))];
  const std::size_t hosts = 2 + rng.uniform_u64(7);
  Star star(hosts, cfg, traced);
  const sim::SimDuration grid = 64u << rng.uniform_u64(5);  // 64 .. 1024 ns
  const auto on_grid = [&](std::uint64_t span) {
    return grid * rng.uniform_u64(span / grid + 1);
  };

  std::vector<std::unique_ptr<ClosedLoop>> loops;
  std::vector<std::unique_ptr<std::pair<Endpoint, Endpoint>>> open;
  const std::size_t flows = 1 + rng.uniform_u64(6);
  std::uint64_t budget = 12u * 1024 * 1024;  // bytes per world
  for (std::size_t i = 0; i < flows; ++i) {
    const std::size_t src = rng.uniform_u64(hosts);
    std::size_t dst = rng.uniform_u64(hosts - 1);
    if (dst >= src) ++dst;
    auto [a, b] = star.pair(src, dst, "q" + std::to_string(i));
    const std::size_t messages = 1 + rng.uniform_u64(4);
    std::vector<std::uint32_t> sizes;
    for (std::size_t m = 0; m < messages; ++m) {
      const std::uint32_t sz = pick_size(rng);
      if (sz > budget) break;
      budget -= sz;
      sizes.push_back(sz);
    }
    if (sizes.empty()) sizes.push_back(1 + rng.uniform_u64(3 * kMtu));
    if (rng.uniform_u64(2) == 0) {
      auto loop = std::make_unique<ClosedLoop>();
      loop->star = &star;
      loop->a = std::move(a);
      loop->b = std::move(b);
      loop->sizes = std::move(sizes);
      loop->poll = grid * (1 + rng.uniform_u64(8));
      loop->think = on_grid(20000);
      ClosedLoop* l = loop.get();
      star.sim.schedule_at(on_grid(200000), [l] { l->post(); });
      loops.push_back(std::move(loop));
    } else {
      open.push_back(std::make_unique<std::pair<Endpoint, Endpoint>>(
          std::move(a), std::move(b)));
      const Endpoint* ea = &open.back()->first;
      const Endpoint* eb = &open.back()->second;
      for (std::size_t m = 0; m < sizes.size(); ++m) {
        const std::uint32_t sz = sizes[m];
        star.sim.schedule_at(on_grid(4000000), [ea, eb, sz, m] {
          ea->qp->hca().post_send(*ea->qp, write_wr(*ea, *eb, sz, m));
        });
      }
    }
  }
  // Snapshots inside events, periodically, and between run_until chunks.
  const sim::SimDuration period = on_grid(40000) + grid;
  std::function<void()> tick = [&] {
    star.snapshot("in ");
    if (star.sim.now() < 12000000) star.sim.schedule_in(period, tick);
  };
  star.sim.schedule_at(on_grid(50000), tick);
  const sim::SimDuration chunk = on_grid(300000) + grid;
  for (sim::SimTime t = chunk; t < 12000000; t += chunk) {
    star.sim.run_until(t);
    star.snapshot("out ");
  }
  star.sim.run();
  for (const auto& ends : open) star.drain_cq(*ends->first.send_cq);
  star.finish();
  expect_drained(star.fabric);
  return {std::move(star.log), star.sim.events_processed()};
}

TEST(PacketTrains, RandomStarsMatchPacketMode) {
  std::uint64_t train_events = 0;
  std::uint64_t packet_events = 0;
  int with_trains = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const RunStats trains = run_random_world(seed, false);
    const RunStats packets = run_random_world(seed, true);
    ASSERT_EQ(trains.log, packets.log);
    EXPECT_LE(trains.events, packets.events);
    train_events += trains.events;
    packet_events += packets.events;
    with_trains += trains.events < packets.events ? 1 : 0;
  }
  // The worlds exercise trains, not just packet mode: most of them run
  // some, and together they skip a large share of the packet events.
  EXPECT_GT(with_trains, 150);
  EXPECT_LT(train_events * 4, packet_events * 3);
}

/// The train of one 64-packet write from host 0 to host 1 at 1 ns/byte:
/// launched at 400 ns (WQE pickup), so the uplink's tx-complete of packet p
/// is at C(p) and its delivery at A(p) = C(p) + 200.
constexpr sim::SimTime C(std::uint32_t p) { return 400 + (p + 1) * kMtu; }
constexpr sim::SimTime A(std::uint32_t p) { return C(p) + 200; }

/// Runs `build` on a 3-host star traced and untraced; the transcripts must
/// match, and the untraced run must have opened a train.
template <typename Build>
void expect_same_both_ways(Build build) {
  std::string logs[2];
  std::uint64_t events[2] = {};
  for (const bool traced : {false, true}) {
    Star star(3, testing::test_config(), traced);
    auto [a, b] = star.pair(0, 1, "big");
    a.qp->hca().post_send(*a.qp, write_wr(a, b, 64 * kMtu, 1));
    build(star, a, b);
    star.sim.run();
    star.drain_cq(*a.send_cq);
    star.finish();
    expect_drained(star.fabric);
    logs[traced] = std::move(star.log);
    events[traced] = star.sim.events_processed();
  }
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_LT(events[0], events[1]);
}

TEST(PacketTrains, AnotherRunAtAVirtualTxComplete) {
  // Another QP on host 0 enqueues its run at exactly C(5): once drawn
  // before C(4), where the train's tx-complete at C(5) was virtually
  // posted, and once after it.
  for (const bool early : {true, false}) {
    SCOPED_TRACE(early ? "drawn before" : "drawn after");
    expect_same_both_ways([early](Star& star, Endpoint&, Endpoint&) {
      auto ep = std::make_shared<std::pair<Endpoint, Endpoint>>(
          star.pair(0, 1, "other"));
      Hca& hca = *star.hcas[0];
      if (early) {
        star.sim.schedule_at(500, [&hca, ep] {
          hca.stall_wqe_fetch_until(C(5));
          hca.post_send(*ep->first.qp,
                        write_wr(ep->first, ep->second, 3 * kMtu, 7));
        });
      } else {
        star.sim.schedule_at(C(5) - 400, [&hca, ep] {
          hca.post_send(*ep->first.qp,
                        write_wr(ep->first, ep->second, 3 * kMtu, 7));
        });
      }
      star.sim.schedule_at(C(40), [&star, ep] {
        star.drain_cq(*ep->first.send_cq);
      });
    });
  }
}

TEST(PacketTrains, SnapshotsAtVirtualInstants) {
  expect_same_both_ways([](Star& star, Endpoint&, Endpoint&) {
    // Drawn before the train opened, at instants it computes.
    for (const sim::SimTime t : {C(3), A(3), A(3) + kMtu, C(60), A(61)}) {
      star.sim.schedule_at(t, [&star] { star.snapshot("early "); });
    }
    // Drawn after the virtual events of those instants were posted.
    star.sim.schedule_at(C(10) - 100, [&star] {
      star.sim.schedule_at(C(10), [&star] { star.snapshot("late "); });
      star.sim.schedule_at(A(10), [&star] { star.snapshot("late "); });
    });
    // At the last tx-complete, C(63): drawn while the train runs but before
    // its poster at C(62), then after it.
    star.sim.schedule_at(C(30), [&star] {
      star.sim.schedule_at(C(63), [&star] { star.snapshot("mid "); });
    });
    star.sim.schedule_at(C(62) + 1, [&star] {
      star.sim.schedule_at(C(63), [&star] { star.snapshot("late "); });
    });
    star.sim.run_until(A(20));
    star.snapshot("between ");
  });
}

TEST(PacketTrains, EndingATrainKeepsItsPendingEventsInPlace) {
  // A snapshot at C(10) is drawn just after C(9), where the train's
  // tx-complete at C(10) was virtually posted, so it must see that
  // tx-complete (and the launch of packet 11) done. Another QP's run then
  // ends the train before C(10): the re-materialised tx-complete keeps the
  // key it was posted with rather than a fresh one drawn at the break.
  // The same for the delivery at A(20) and the downlink tx-complete of 19
  // there, ended by a snapshot-free break just before.
  expect_same_both_ways([](Star& star, Endpoint&, Endpoint&) {
    auto ep = std::make_shared<std::pair<Endpoint, Endpoint>>(
        star.pair(0, 1, "other"));
    Hca& hca = *star.hcas[0];
    star.sim.schedule_at(C(9) + 10, [&star] {
      star.sim.schedule_at(C(10), [&star] { star.snapshot("at C(10) "); });
    });
    star.sim.schedule_at(C(9) + 100, [&hca, ep] {
      hca.post_send(*ep->first.qp,
                    write_wr(ep->first, ep->second, 40 * kMtu, 3));
    });
    star.sim.schedule_at(C(60), [&star, ep] {
      star.drain_cq(*ep->first.send_cq);
    });
  });
  expect_same_both_ways([](Star& star, Endpoint&, Endpoint&) {
    auto ep = std::make_shared<std::pair<Endpoint, Endpoint>>(
        star.pair(2, 1, "feeder"));
    star.sim.schedule_at(C(20) + 50, [&star] {
      star.sim.schedule_at(A(20), [&star] { star.snapshot("at A(20) "); });
    });
    // Host 2's packet reaches the downlink at C(20) + 150.
    star.sim.schedule_at(C(20) + 150 - 400 - kMtu - 200, [&star, ep] {
      star.hcas[2]->post_send(*ep->first.qp,
                              write_wr(ep->first, ep->second, kMtu, 4));
    });
    star.sim.schedule_at(C(80), [&star, ep] {
      star.drain_cq(*ep->first.send_cq);
    });
  });
}

TEST(PacketTrains, AnotherFeederAtAVirtualArrival) {
  // Host 2 sends into the train's downlink so that its first packet
  // arrives at exactly A(9), where the train's downlink tx-complete of 8
  // and uplink delivery of 9 also fall.
  for (const std::uint32_t packets : {1u, 2u, 5u}) {
    SCOPED_TRACE("packets=" + std::to_string(packets));
    expect_same_both_ways([packets](Star& star, Endpoint&, Endpoint&) {
      auto ep = std::make_shared<std::pair<Endpoint, Endpoint>>(
          star.pair(2, 1, "feeder"));
      Hca& hca = *star.hcas[2];
      // pickup 400 + one MTU + 200 = A(9)
      star.sim.schedule_at(A(9) - 400 - kMtu - 200, [&hca, ep, packets] {
        hca.post_send(*ep->first.qp,
                      write_wr(ep->first, ep->second, packets * kMtu, 9));
      });
      star.sim.schedule_at(C(80), [&star, ep] {
        star.drain_cq(*ep->first.send_cq);
      });
    });
  }
}

TEST(PacketTrains, DispatchLogLivesOnlyWhileATrainIsOpen) {
  // Two back-to-back 4 MB writes on an otherwise idle star, probed by a
  // real event every 977 ns. The simulation logs dispatches only while a
  // train is open, and drops them when the last one closes.
  Star star(2, testing::test_config(), false);
  auto [a, b] = star.pair(0, 1, "big");
  Hca& hca = *star.hcas[0];
  hca.post_send(*a.qp, write_wr(a, b, 4u * 1024 * 1024, 1));
  hca.post_send(*a.qp, write_wr(a, b, 4u * 1024 * 1024, 2));
  std::size_t probes = 0;
  std::size_t in_train = 0;
  std::size_t max_log = 0;
  std::function<void()> probe = [&] {
    ++probes;
    const bool open = hca.uplink().in_train();
    in_train += open ? 1 : 0;
    if (!open) {
      EXPECT_EQ(star.sim.order_log_size(), 0u);
    }
    max_log = std::max(max_log, star.sim.order_log_size());
    if (star.sim.now() < 10000000) star.sim.schedule_in(977, probe);
  };
  star.sim.schedule_at(0, probe);
  star.sim.run();
  EXPECT_EQ(star.sim.order_log_size(), 0u);
  EXPECT_GT(in_train, probes / 2);
  // One entry per real dispatch of the open train's lifetime: the probes
  // plus a few events of the train's own, never the whole run.
  EXPECT_LT(max_log, in_train / 2 + 64);
  star.drain_cq(*a.send_cq);
  expect_drained(star.fabric);
}

}  // namespace
}  // namespace resex::fabric
