// Failure injection: the system's behaviour when things go wrong mid-flight
// — deregistered memory, revoked introspection privileges, cap churn,
// undersized rings, flapping receivers.

#include <gtest/gtest.h>

#include "../fabric/fabric_fixture.hpp"
#include "core/detector.hpp"
#include "core/testbed.hpp"
#include "ibmon/ibmon.hpp"

namespace resex {
namespace {

using namespace resex::sim::literals;
using fabric::Cqe;
using fabric::CqeStatus;
using fabric::Opcode;
using fabric::RecvWr;
using fabric::SendWr;
using fabric::Endpoint;
using fabric::testing::TwoNodeWorld;
using sim::SimTime;
using sim::Task;

SendWr write_to(const Endpoint& src, const Endpoint& dst,
                std::uint32_t length) {
  SendWr wr;
  wr.opcode = Opcode::kRdmaWrite;
  wr.local_addr = src.buf;
  wr.lkey = src.mr.lkey;
  wr.length = length;
  wr.remote_addr = dst.buf;
  wr.rkey = dst.mr.rkey;
  return wr;
}

TEST(FailureInjection, MrDeregisteredBeforeDeliveryFailsThatTransfer) {
  TwoNodeWorld world;
  auto [a, b] = world.make_connected_pair();
  std::vector<Cqe> cqes;
  world.sim.spawn([](Endpoint& src, Endpoint& dst,
                     std::vector<Cqe>& out) -> Task {
    co_await src.verbs->post_send(*src.qp, write_to(src, dst, 64 * 1024));
    out.push_back(co_await src.verbs->next_cqe(*src.send_cq));
  }(a, b, cqes));
  // Pull the target MR while the 64 KiB transfer is on the wire (~65 us).
  world.sim.schedule_at(10 * sim::kMicrosecond, [&world, &b = b] {
    ASSERT_TRUE(world.hca_b->dereg_mr(b.mr.rkey));
  });
  world.sim.run();
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].status,
            static_cast<std::uint8_t>(CqeStatus::kRemoteAccessError));
}

TEST(FailureInjection, MrDeregisteredAfterDeliveryDoesNotAffectIt) {
  TwoNodeWorld world;
  auto [a, b] = world.make_connected_pair();
  std::vector<Cqe> cqes;
  world.sim.spawn([](Endpoint& src, Endpoint& dst,
                     std::vector<Cqe>& out) -> Task {
    co_await src.verbs->post_send(*src.qp, write_to(src, dst, 1024));
    out.push_back(co_await src.verbs->next_cqe(*src.send_cq));
  }(a, b, cqes));
  world.sim.run();
  ASSERT_EQ(cqes.size(), 1u);
  EXPECT_EQ(cqes[0].status,
            static_cast<std::uint8_t>(CqeStatus::kSuccess));
  ASSERT_TRUE(world.hca_b->dereg_mr(b.mr.rkey));
  std::vector<Cqe> cqes2;
  world.sim.spawn([](Endpoint& src, Endpoint& dst,
                     std::vector<Cqe>& out) -> Task {
    co_await src.verbs->post_send(*src.qp, write_to(src, dst, 1024));
    out.push_back(co_await src.verbs->next_cqe(*src.send_cq));
  }(a, b, cqes2));
  world.sim.run();
  ASSERT_EQ(cqes2.size(), 1u);
  EXPECT_EQ(cqes2[0].status,
            static_cast<std::uint8_t>(CqeStatus::kRemoteAccessError));
}

TEST(FailureInjection, IntrospectionRevocationSurfacesAsError) {
  core::Testbed tb;
  auto& pair = tb.deploy_pair(core::reporting_config(), "vm");
  pair.server_domain().memory().set_foreign_mappable(true);
  ibmon::IbMon mon(tb.sim());
  mon.watch_domain(pair.server_domain(),
                   tb.hca_a().domain_cqs(pair.server_domain().id()));
  mon.start();
  tb.sim().run_until(10_ms);
  // dom0 loses (or a hardening pass revokes) the mapping privilege: the
  // monitor's next sample must fail loudly, not silently report zeros.
  pair.server_domain().memory().set_foreign_mappable(false);
  EXPECT_THROW(tb.sim().run_until(20_ms), mem::ForeignMapDenied);
}

TEST(FailureInjection, CapChurnDuringTrafficKeepsInvariants) {
  core::Testbed tb;
  auto& pair = tb.deploy_pair(core::reporting_config(), "vm");
  auto& vcpu = pair.server_domain().vcpu();
  sim::Rng rng(99);
  // Random cap thrash every 500 us for 200 ms.
  for (int i = 1; i <= 400; ++i) {
    tb.sim().schedule_at(static_cast<SimTime>(i) * 500_us, [&vcpu, &tb,
                                                            &rng]() mutable {
      tb.node_a().scheduler().set_cap(vcpu, 1.0 + rng.uniform() * 99.0);
    });
  }
  tb.sim().run_until(250_ms);
  const auto& cm = pair.client_metrics();
  const auto& sm = pair.server_metrics();
  EXPECT_GT(cm.received, 50u);       // progress despite the thrash
  EXPECT_EQ(cm.errors, 0u);          // nothing corrupted
  EXPECT_EQ(sm.send_errors, 0u);
  for (double v : cm.latency_us.values()) {
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1e6);
  }
  // Accounting stayed monotone and sane under re-planning.
  const auto busy = vcpu.busy_ns();
  EXPECT_GT(busy, 0u);
  EXPECT_LE(busy, 250_ms);
}

TEST(FailureInjection, UndersizedCqOverrunIsLoud) {
  core::Testbed tb;
  auto cfg = core::reporting_config(64 * 1024, 4000.0);
  cfg.cq_entries = 4;  // absurdly small CQs
  cfg.ring_slots = 16;
  auto& pair = tb.deploy_pair(cfg, "vm");
  // Throttle the server to 1%: it cannot poll, so up to 16 request CQEs
  // pile into its 4-entry recv CQ — the hardware model must fail loudly
  // (silent CQE loss would corrupt the whole accounting chain).
  tb.node_a().scheduler().set_cap(pair.server_domain().vcpu(), 1.0);
  EXPECT_THROW(tb.sim().run_until(1 * sim::kSecond), std::runtime_error);
}

TEST(FailureInjection, FlappingReceiverEventuallyDrainsWithRetries) {
  TwoNodeWorld world;
  auto [a, b] = world.make_connected_pair();
  std::vector<Cqe> sends, recvs;
  std::vector<SimTime> times;
  // Sender fires 5 messages back to back; the receiver posts one recv every
  // 700 us, so most messages hit RNR several times before landing.
  world.sim.spawn([](Endpoint& src, Endpoint& dst,
                     std::vector<Cqe>& out) -> Task {
    for (int i = 0; i < 5; ++i) {
      auto wr = write_to(src, dst, 1024);
      wr.opcode = Opcode::kRdmaWriteWithImm;
      wr.wr_id = static_cast<std::uint64_t>(i);
      co_await src.verbs->post_send(*src.qp, wr);
      out.push_back(co_await src.verbs->next_cqe(*src.send_cq));
    }
  }(a, b, sends));
  for (int i = 0; i < 5; ++i) {
    world.sim.schedule_at(static_cast<SimTime>(i + 1) * 700_us,
                          [&b = b, i] {
                            b.qp->post_recv(
                                RecvWr{.wr_id = static_cast<std::uint64_t>(i)});
                          });
  }
  world.sim.spawn([](Endpoint& ep, std::vector<Cqe>& out,
                     std::vector<SimTime>& ts) -> Task {
    for (int i = 0; i < 5; ++i) {
      out.push_back(co_await ep.verbs->next_cqe(*ep.recv_cq));
      ts.push_back(ep.verbs->vcpu().simulation().now());
    }
  }(b, recvs, times));
  world.sim.run_until(10 * sim::kMillisecond);
  ASSERT_EQ(recvs.size(), 5u);
  ASSERT_EQ(sends.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sends[static_cast<std::size_t>(i)].status,
              static_cast<std::uint8_t>(CqeStatus::kSuccess));
    // Sender completions stay in post order across retries.
    EXPECT_EQ(sends[static_cast<std::size_t>(i)].wr_id,
              static_cast<std::uint64_t>(i));
  }
}

TEST(FailureInjection, DetectorSurvivesDegenerateBaselines) {
  core::InterferenceDetector d;
  d.add_vm(1, 0.0);  // zero baseline: must not divide by zero
  EXPECT_DOUBLE_EQ(d.observe(1, {1000.0, 0.0, 1}), 0.0);
  d.add_vm(2, 1e-9);
  EXPECT_LE(d.observe(2, {1e9, 0.0, 1}), d.config().max_intf_pct);
}

}  // namespace
}  // namespace resex
