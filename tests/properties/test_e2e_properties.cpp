// End-to-end property suite over BenchEx configurations: physical lower
// bounds, FCFS ordering, and flow-control invariants must hold for every
// buffer size / rate / load mode.

#include <gtest/gtest.h>

#include "core/testbed.hpp"

namespace resex::benchex {
namespace {

using namespace resex::sim::literals;
using core::Testbed;

struct E2EConfig {
  std::uint32_t buffer;
  double rate;        // open-loop rate; 0 = closed loop
  std::uint32_t depth;
};

class BenchExPropertyTest : public ::testing::TestWithParam<E2EConfig> {};

BenchExConfig make_config(const E2EConfig& p) {
  BenchExConfig cfg;
  cfg.buffer_bytes = p.buffer;
  if (p.rate > 0.0) {
    cfg.mode = LoadMode::kOpenLoop;
    cfg.arrivals = {.kind = resex::trace::ArrivalKind::kFixedRate,
                    .rate_per_sec = p.rate};
  } else {
    cfg.mode = LoadMode::kClosedLoop;
    cfg.queue_depth = p.depth;
  }
  cfg.instruments = 20;
  cfg.seed = 17;
  return cfg;
}

TEST_P(BenchExPropertyTest, LatencyRespectsPhysicalLowerBound) {
  Testbed tb;
  auto& pair = tb.deploy_pair(make_config(GetParam()), "vm");
  tb.sim().run_until(300_ms);
  const auto& cm = pair.client_metrics();
  ASSERT_GT(cm.received, 10u);
  // Round trip >= two serializations of the buffer (request + response) at
  // ~0.93 ns/byte plus the modelled compute (5us + 20*0.8us = 21 us).
  const double wire_us = 2.0 * GetParam().buffer * 0.93 / 1000.0;
  const double bound_us = wire_us + 21.0;
  EXPECT_GE(cm.latency_us.min(), bound_us * 0.98)
      << "buffer=" << GetParam().buffer;
}

TEST_P(BenchExPropertyTest, ConservationAndFlowControl) {
  Testbed tb;
  auto& pair = tb.deploy_pair(make_config(GetParam()), "vm");
  tb.sim().run_until(300_ms);
  const auto& cm = pair.client_metrics();
  const auto& sm = pair.server_metrics();
  EXPECT_EQ(cm.errors, 0u);
  EXPECT_EQ(sm.send_errors, 0u);
  // Everything received was sent; in-flight bounded by the credit window.
  EXPECT_LE(cm.received, cm.sent);
  const std::uint32_t depth = GetParam().rate > 0.0
                                  ? make_config(GetParam()).ring_slots
                                  : GetParam().depth;
  EXPECT_LE(cm.sent - cm.received, depth);
  // The server answered exactly what the client got back, up to responses
  // in flight in either direction (the server's own completion CQE lags the
  // client's receive CQE by the ACK delay, so either side may lead).
  const auto diff = static_cast<std::int64_t>(sm.requests) -
                    static_cast<std::int64_t>(cm.received);
  EXPECT_LE(std::llabs(diff), static_cast<std::int64_t>(depth) + 1);
}

TEST_P(BenchExPropertyTest, DecompositionSumsToTotal) {
  Testbed tb;
  auto& pair = tb.deploy_pair(make_config(GetParam()), "vm");
  tb.sim().run_until(300_ms);
  const auto& sm = pair.server_metrics();
  ASSERT_GT(sm.total_us.count(), 0u);
  const double parts =
      sm.ptime_us.mean() + sm.ctime_us.mean() + sm.wtime_us.mean() + 10.0;
  EXPECT_NEAR(sm.total_us.mean(), parts, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BenchExPropertyTest,
    ::testing::Values(E2EConfig{4 * 1024, 3000.0, 0},
                      E2EConfig{64 * 1024, 2000.0, 0},
                      E2EConfig{256 * 1024, 500.0, 0},
                      E2EConfig{64 * 1024, 0.0, 1},
                      E2EConfig{512 * 1024, 0.0, 2},
                      E2EConfig{2 * 1024 * 1024, 0.0, 2}),
    [](const ::testing::TestParamInfo<E2EConfig>& info) {
      return "buf" + std::to_string(info.param.buffer / 1024) + "k_" +
             (info.param.rate > 0.0
                  ? "open" + std::to_string(static_cast<int>(info.param.rate))
                  : "closed" + std::to_string(info.param.depth));
    });

// FCFS ordering: responses arrive in request order for every mode.
TEST(BenchExOrdering, ResponsesAreFcfs) {
  // The client records latencies in arrival order; with a FIFO QP and FCFS
  // server, response n's send time is monotone in n. We verify indirectly:
  // a closed-loop depth-1 client can never observe out-of-order responses
  // (each is awaited), and an open-loop client's received count equals the
  // contiguous sequence (no gaps -> no reordering with the slot protocol,
  // otherwise header parsing would mismatch and checksum-bearing responses
  // would corrupt latency numbers to negative values).
  Testbed tb;
  auto cfg = core::reporting_config();
  auto& pair = tb.deploy_pair(cfg, "vm");
  tb.sim().run_until(300_ms);
  for (double v : pair.client_metrics().latency_us.values()) {
    ASSERT_GT(v, 0.0);       // negative latency would mean header mix-up
    ASSERT_LT(v, 100000.0);  // and absurd values a stale-slot read
  }
}

// CPU sharing: two server VMs forced onto one PCPU split throughput.
TEST(BenchExScheduling, SharedPcpuHalvesEachServersProgress) {
  using resex::hv::DomainConfig;
  Testbed tb;
  auto cfg = core::reporting_config(64 * 1024, 8000.0);  // near CPU-bound
  auto& p1 = tb.deploy_pair(cfg, "p1");
  cfg.seed = 2;
  auto& p2 = tb.deploy_pair(cfg, "p2");
  // Re-pin the second server onto the first server's PCPU.
  auto& sched = tb.node_a().scheduler();
  const auto pcpu = sched.pcpu_of(p1.server_domain().vcpu());
  sched.detach(p2.server_domain().vcpu());
  sched.attach(p2.server_domain().vcpu(), pcpu);
  tb.sim().run_until(300_ms);
  // Both made progress, but each sees inflated latency vs a dedicated CPU.
  EXPECT_GT(p1.server_metrics().requests, 100u);
  EXPECT_GT(p2.server_metrics().requests, 100u);
  Testbed solo_tb;
  auto& solo = solo_tb.deploy_pair(core::reporting_config(64 * 1024, 8000.0),
                                   "solo");
  solo_tb.sim().run_until(300_ms);
  EXPECT_GT(p1.client_metrics().latency_us.mean(),
            1.5 * solo.client_metrics().latency_us.mean());
}

}  // namespace
}  // namespace resex::benchex
