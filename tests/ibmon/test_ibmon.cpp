#include "ibmon/ibmon.hpp"

#include <gtest/gtest.h>

#include "../fabric/fabric_fixture.hpp"

namespace resex::ibmon {
namespace {

using namespace resex::sim::literals;
using fabric::Cqe;
using fabric::CqeOpcode;
using fabric::CqeStatus;
using fabric::Endpoint;
using fabric::testing::TwoNodeWorld;
using sim::Task;

Cqe send_cqe(std::uint64_t wr_id, std::uint32_t bytes,
             fabric::QpNum qp = 10) {
  Cqe c;
  c.wr_id = wr_id;
  c.qp_num = qp;
  c.byte_len = bytes;
  c.opcode = static_cast<std::uint8_t>(CqeOpcode::kSendComplete);
  c.status = static_cast<std::uint8_t>(CqeStatus::kSuccess);
  return c;
}

struct IbMonFixture : ::testing::Test {
  TwoNodeWorld world;
  Endpoint ep = world.make_endpoint(world.node_a, *world.hca_a, "vm");
  IbMon mon{world.sim};

  void SetUp() override {
    ep.domain->memory().set_foreign_mappable(true);
  }
};

TEST_F(IbMonFixture, WatchRequiresForeignMappingPrivilege) {
  Endpoint locked = world.make_endpoint(world.node_a, *world.hca_a, "locked");
  EXPECT_THROW(mon.watch_cq(*locked.domain, *locked.send_cq),
               mem::ForeignMapDenied);
}

TEST_F(IbMonFixture, CountsSendCompletions) {
  mon.watch_cq(*ep.domain, *ep.send_cq);
  ep.send_cq->produce(send_cqe(1, 64 * 1024));
  ep.send_cq->produce(send_cqe(2, 64 * 1024));
  mon.sample_now();
  const auto st = mon.stats(ep.domain->id());
  EXPECT_EQ(st.send_completions, 2u);
  EXPECT_EQ(st.send_bytes, 128u * 1024u);
  EXPECT_EQ(st.send_mtus, 128u);
  EXPECT_EQ(st.est_buffer_size, 64u * 1024u);
}

TEST_F(IbMonFixture, MtuRoundingPerMessage) {
  mon.watch_cq(*ep.domain, *ep.send_cq);
  ep.send_cq->produce(send_cqe(1, 1));      // 1 MTU
  ep.send_cq->produce(send_cqe(2, 1025));   // 2 MTUs
  ep.send_cq->produce(send_cqe(3, 0));      // still 1 MTU on the wire
  mon.sample_now();
  EXPECT_EQ(mon.stats(ep.domain->id()).send_mtus, 4u);
}

TEST_F(IbMonFixture, SeparatesRecvFromSend) {
  mon.watch_cq(*ep.domain, *ep.recv_cq);
  Cqe c = send_cqe(1, 2048);
  c.opcode = static_cast<std::uint8_t>(CqeOpcode::kRecvRdmaWithImm);
  ep.recv_cq->produce(c);
  mon.sample_now();
  const auto st = mon.stats(ep.domain->id());
  EXPECT_EQ(st.send_completions, 0u);
  EXPECT_EQ(st.recv_completions, 1u);
  EXPECT_EQ(st.recv_bytes, 2048u);
}

TEST_F(IbMonFixture, ErrorCqesCountedSeparately) {
  mon.watch_cq(*ep.domain, *ep.send_cq);
  Cqe c = send_cqe(1, 4096);
  c.status = static_cast<std::uint8_t>(CqeStatus::kRemoteAccessError);
  ep.send_cq->produce(c);
  mon.sample_now();
  const auto st = mon.stats(ep.domain->id());
  EXPECT_EQ(st.error_completions, 1u);
  EXPECT_EQ(st.send_bytes, 0u);
}

TEST_F(IbMonFixture, TracksQpNumbers) {
  mon.watch_cq(*ep.domain, *ep.send_cq);
  ep.send_cq->produce(send_cqe(1, 10, 7));
  ep.send_cq->produce(send_cqe(2, 10, 9));
  ep.send_cq->produce(send_cqe(3, 10, 7));
  mon.sample_now();
  const auto st = mon.stats(ep.domain->id());
  EXPECT_EQ(st.qpns, (std::set<fabric::QpNum>{7, 9}));
}

TEST_F(IbMonFixture, IncrementalScansOnlyCountNewEntries) {
  mon.watch_cq(*ep.domain, *ep.send_cq);
  ep.send_cq->produce(send_cqe(1, 1024));
  mon.sample_now();
  mon.sample_now();  // nothing new
  EXPECT_EQ(mon.stats(ep.domain->id()).send_completions, 1u);
  ep.send_cq->produce(send_cqe(2, 1024));
  mon.sample_now();
  EXPECT_EQ(mon.stats(ep.domain->id()).send_completions, 2u);
}

TEST_F(IbMonFixture, DoesNotDisturbTheGuestConsumer) {
  mon.watch_cq(*ep.domain, *ep.send_cq);
  ep.send_cq->produce(send_cqe(1, 512));
  mon.sample_now();
  // The application's own poll must still see the CQE.
  const auto polled = ep.send_cq->poll();
  ASSERT_TRUE(polled.has_value());
  EXPECT_EQ(polled->wr_id, 1u);
}

TEST_F(IbMonFixture, SurvivesRingWrapAcrossLaps) {
  // Ring is 1024 entries; drain via the guest while IBMon samples often
  // enough — totals must be exact across several laps.
  mon.watch_cq(*ep.domain, *ep.send_cq);
  const int total = 3000;
  for (int i = 0; i < total; ++i) {
    ep.send_cq->produce(send_cqe(static_cast<std::uint64_t>(i), 1024));
    (void)ep.send_cq->poll();  // guest consumes immediately
    if (i % 100 == 0) mon.sample_now();
  }
  mon.sample_now();
  EXPECT_EQ(mon.stats(ep.domain->id()).send_completions,
            static_cast<std::uint64_t>(total));
}

TEST_F(IbMonFixture, LapMissDetectedAndEstimated) {
  // Produce more than two full rings between samples: IBMon cannot have
  // seen the overwritten lap; it must resynchronize and record an estimate
  // instead of stalling forever.
  mon.watch_cq(*ep.domain, *ep.send_cq);
  auto produce_burst = [&](int n, sim::SimTime at) {
    world.sim.schedule_at(at, [this, n] {
      for (int i = 0; i < n; ++i) {
        ep.send_cq->produce(send_cqe(1, 2048));
        (void)ep.send_cq->poll();
      }
    });
  };
  produce_burst(100, 1_us);  // establish est_buffer_size
  world.sim.run();
  mon.sample_now();
  produce_burst(1500, 2_us);  // more than one lap past the shadow
  world.sim.run();
  mon.sample_now();
  const auto st = mon.stats(ep.domain->id());
  EXPECT_GT(st.missed_estimate, 0u);
  // Totals are approximate but must be within a lap of the truth.
  EXPECT_GE(st.send_completions + st.missed_estimate, 1500u);
  // And the monitor must keep functioning afterwards.
  ep.send_cq->produce(send_cqe(9, 2048));
  mon.sample_now();
  EXPECT_GT(mon.stats(ep.domain->id()).send_completions,
            st.send_completions);
}

TEST_F(IbMonFixture, FractionalLapChargesOnlyOverwrittenSlots) {
  // Regression: when the producer lapped the shadow by a *fraction* of the
  // ring, resync used to charge a full ring (`entries`) of missed
  // completions. Charging per overwritten slot keeps the estimate exact:
  // 10 slots overwritten -> exactly 10 missed, everything else consumed.
  mon.watch_cq(*ep.domain, *ep.send_cq);
  auto produce_burst = [&](int n, sim::SimTime at) {
    world.sim.schedule_at(at, [this, n] {
      for (int i = 0; i < n; ++i) {
        ep.send_cq->produce(send_cqe(1, 2048));
        (void)ep.send_cq->poll();
      }
    });
  };
  produce_burst(10, 1_us);  // establishes est_buffer_size = 2048
  world.sim.run();
  mon.sample_now();  // shadow = 10
  // 1024 + 10 entries: slots 10..19 are overwritten by the second lap
  // before the monitor can see their first-lap CQEs.
  produce_burst(1024 + 10, 2_us);
  world.sim.run();
  mon.sample_now();
  const auto st = mon.stats(ep.domain->id());
  EXPECT_EQ(st.missed_estimate, 10u);
  EXPECT_EQ(st.send_completions, 1034u);
  // The missed slots are charged at the estimated buffer size, so the byte
  // total is exact here (every message was 2048 bytes).
  EXPECT_EQ(st.send_bytes, (1034u + 10u) * 2048u);
}

TEST_F(IbMonFixture, MedianGapResistsSlowTailAt500msSampling) {
  // ROADMAP A2 regression: sampled at 500 ms the ring laps ~9x between
  // scans, so the resync charge must extrapolate the lost completions from
  // the inter-completion gap. The EWMA estimate is dominated by the most
  // recently consumed gaps — a brief slow tail right before each scan
  // inflates it ~25x and the reconstruction used to collapse to ~20 % of
  // the truth. The per-scan median shrugs the tail off.
  IbMon smon{world.sim, IbMonConfig{.sample_period = 500 * sim::kMillisecond,
                                    .mtu_bytes = 1024}};
  smon.watch_cq(*ep.domain, *ep.send_cq);
  // Baseline completion + sample so the very first 500 ms window has a
  // nonzero timestamp span to extrapolate over.
  world.sim.schedule_at(1_us, [this] {
    ep.send_cq->produce(send_cqe(1, 2048));
    (void)ep.send_cq->poll();
  });
  world.sim.schedule_at(2_us, [&smon] { smon.sample_now(); });

  std::uint64_t produced = 1;
  world.sim.spawn([](sim::Simulation& sim, Endpoint& e,
                     std::uint64_t& total) -> Task {
    co_await sim.delay(10 * sim::kMicrosecond);
    for (int window = 0; window < 4; ++window) {
      for (int i = 0; i < 9600; ++i) {  // steady phase: one per 50 us
        e.send_cq->produce(send_cqe(1, 2048));
        (void)e.send_cq->poll();
        ++total;
        co_await sim.delay(50 * sim::kMicrosecond);
      }
      for (int i = 0; i < 10; ++i) {  // slow tail: one per 2 ms
        e.send_cq->produce(send_cqe(1, 2048));
        (void)e.send_cq->poll();
        ++total;
        co_await sim.delay(2 * sim::kMillisecond);
      }
    }
  }(world.sim, ep, produced));

  smon.start();
  world.sim.run_until(2100 * sim::kMillisecond);
  smon.sample_now();  // sweep entries produced after the last periodic scan

  const auto st = smon.stats(ep.domain->id());
  const auto truth = static_cast<double>(produced);
  const auto seen =
      static_cast<double>(st.send_completions + st.missed_estimate);
  EXPECT_GE(seen, 0.85 * truth);
  EXPECT_LE(seen, 1.15 * truth);
}

TEST_F(IbMonFixture, HwProduceCounterIsExactAt500msSampling) {
  // Same workload as MedianGapResistsSlowTailAt500msSampling (ring laps ~9x
  // between scans, slow tails poisoning the gap estimators), but dom0 reads
  // the HCA's per-CQ produce counter: the completion *count* must be exact,
  // strictly better than the extrapolation's worst-case ~13 % error.
  IbMon smon{world.sim,
             IbMonConfig{.sample_period = 500 * sim::kMillisecond,
                         .mtu_bytes = 1024, .hw_produce_counter = true}};
  smon.watch_cq(*ep.domain, *ep.send_cq);
  world.sim.schedule_at(1_us, [this] {
    ep.send_cq->produce(send_cqe(1, 2048));
    (void)ep.send_cq->poll();
  });
  world.sim.schedule_at(2_us, [&smon] { smon.sample_now(); });

  std::uint64_t produced = 1;
  world.sim.spawn([](sim::Simulation& sim, Endpoint& e,
                     std::uint64_t& total) -> Task {
    co_await sim.delay(10 * sim::kMicrosecond);
    for (int window = 0; window < 4; ++window) {
      for (int i = 0; i < 9600; ++i) {  // steady phase: one per 50 us
        e.send_cq->produce(send_cqe(1, 2048));
        (void)e.send_cq->poll();
        ++total;
        co_await sim.delay(50 * sim::kMicrosecond);
      }
      for (int i = 0; i < 10; ++i) {  // slow tail: one per 2 ms
        e.send_cq->produce(send_cqe(1, 2048));
        (void)e.send_cq->poll();
        ++total;
        co_await sim.delay(2 * sim::kMillisecond);
      }
    }
  }(world.sim, ep, produced));

  smon.start();
  world.sim.run_until(2100 * sim::kMillisecond);
  smon.sample_now();  // sweep entries produced after the last periodic scan

  const auto st = smon.stats(ep.domain->id());
  EXPECT_EQ(st.send_completions + st.missed_estimate, produced);
  // The bytes of lost completions are still EWMA-estimated, but here every
  // message is 2048 bytes, so the total must be exact too.
  EXPECT_EQ(st.send_bytes, produced * 2048u);
}

TEST_F(IbMonFixture, HwProduceCounterCatchesExactEvenLapOverrun) {
  // An exact even number of laps between scans restores the expected owner
  // parity: the ring walk consumes a full ring of *current-lap* CQEs and
  // never resyncs, silently dropping the skipped laps. The produce counter
  // sees through it.
  IbMon hwmon{world.sim, IbMonConfig{.hw_produce_counter = true}};
  hwmon.watch_cq(*ep.domain, *ep.send_cq);
  const std::uint32_t entries = ep.send_cq->entries();
  world.sim.schedule_at(1_us, [&] {
    for (std::uint32_t i = 0; i < 2 * entries; ++i) {
      ep.send_cq->produce(send_cqe(i, 2048));
      (void)ep.send_cq->poll();
    }
  });
  world.sim.run();
  hwmon.sample_now();
  const auto st = hwmon.stats(ep.domain->id());
  EXPECT_EQ(st.send_completions + st.missed_estimate, 2u * entries);
  EXPECT_GT(st.missed_estimate, 0u);
}

TEST_F(IbMonFixture, PeriodicSamplerRuns) {
  mon.watch_cq(*ep.domain, *ep.send_cq);
  mon.start();
  mon.start();  // idempotent
  world.sim.schedule_at(250_us, [&] { ep.send_cq->produce(send_cqe(1, 64)); });
  world.sim.run_until(1_ms);
  EXPECT_TRUE(mon.started());
  EXPECT_GE(mon.samples_taken(), 9u);
  EXPECT_EQ(mon.stats(ep.domain->id()).send_completions, 1u);
}

TEST_F(IbMonFixture, WatchDomainWatchesAllCqs) {
  mon.watch_domain(*ep.domain,
                   world.hca_a->domain_cqs(ep.domain->id()));
  EXPECT_EQ(mon.watched_cq_count(), 2u);
}

TEST_F(IbMonFixture, UnknownDomainGivesZeroStats) {
  const auto st = mon.stats(777);
  EXPECT_EQ(st.send_completions, 0u);
  EXPECT_EQ(st.send_bytes, 0u);
}

TEST_F(IbMonFixture, StalenessTracksObservationGaps) {
  IbMon smon{world.sim,
             IbMonConfig{.sample_period = 100 * sim::kMicrosecond,
                         .mtu_bytes = 1024,
                         .stale_after = 5 * sim::kMillisecond}};
  smon.watch_cq(*ep.domain, *ep.send_cq);
  smon.start();
  EXPECT_FALSE(smon.stale(ep.domain->id()));
  // A completion at 2 ms keeps the domain fresh at 4 ms...
  world.sim.schedule_at(2 * sim::kMillisecond,
                        [&] { ep.send_cq->produce(send_cqe(1, 64)); });
  world.sim.run_until(4 * sim::kMillisecond);
  EXPECT_FALSE(smon.stale(ep.domain->id()));
  // ...but 5+ ms of ring silence crosses the threshold.
  world.sim.run_until(8 * sim::kMillisecond);
  EXPECT_TRUE(smon.stale(ep.domain->id()));
  // Fresh completions clear it again.
  ep.send_cq->produce(send_cqe(2, 64));
  world.sim.run_until(9 * sim::kMillisecond);
  EXPECT_FALSE(smon.stale(ep.domain->id()));
  // Unknown domains are never stale; stale_after = 0 disables the check.
  EXPECT_FALSE(smon.stale(777));
  EXPECT_FALSE(mon.stale(ep.domain->id()));
}

TEST_F(IbMonFixture, EndToEndAgainstRealTraffic) {
  // Drive real RDMA traffic and check IBMon's reconstruction matches the
  // hardware counters.
  auto [src, dst] = world.make_connected_pair();
  src.domain->memory().set_foreign_mappable(true);
  mon.watch_domain(*src.domain,
                   world.hca_a->domain_cqs(src.domain->id()));
  mon.start();
  for (int i = 0; i < 8; ++i) dst.qp->post_recv(fabric::RecvWr{.wr_id = 1});
  world.sim.spawn([](Endpoint& s, Endpoint& d) -> Task {
    for (int i = 0; i < 8; ++i) {
      fabric::SendWr wr;
      wr.opcode = fabric::Opcode::kRdmaWriteWithImm;
      wr.local_addr = s.buf;
      wr.lkey = s.mr.lkey;
      wr.length = 16 * 1024;
      wr.remote_addr = d.buf;
      wr.rkey = d.mr.rkey;
      co_await s.verbs->post_send(*s.qp, wr);
      (void)co_await s.verbs->next_cqe(*s.send_cq);
    }
  }(src, dst));
  world.sim.run_until(10 * sim::kMillisecond);
  const auto st = mon.stats(src.domain->id());
  EXPECT_EQ(st.send_completions, 8u);
  EXPECT_EQ(st.send_bytes, 8u * 16u * 1024u);
  EXPECT_EQ(st.send_mtus, 8u * 16u);
  EXPECT_EQ(st.est_buffer_size, 16u * 1024u);
  EXPECT_EQ(st.qpns.count(src.qp->num()), 1u);
}

}  // namespace
}  // namespace resex::ibmon
