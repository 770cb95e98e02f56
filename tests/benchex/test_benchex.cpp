#include <gtest/gtest.h>

#include "core/testbed.hpp"

namespace resex::benchex {
namespace {

using namespace resex::sim::literals;
using core::interferer_config;
using core::reporting_config;
using core::Testbed;

TEST(BenchExBase, PairServesRequestsWithStableLatency) {
  Testbed tb;
  auto& pair = tb.deploy_pair(reporting_config(), "64KB");
  tb.sim().run_until(300_ms);

  const auto& sm = pair.server_metrics();
  const auto& cm = pair.client_metrics();
  EXPECT_GT(sm.requests, 500u);
  EXPECT_EQ(sm.send_errors, 0u);
  EXPECT_EQ(cm.errors, 0u);
  EXPECT_NEAR(static_cast<double>(cm.received),
              static_cast<double>(cm.sent), 16.0);

  // Latency in the neighbourhood of the paper's ~209 us, and very stable.
  EXPECT_GT(cm.latency_us.mean(), 120.0);
  EXPECT_LT(cm.latency_us.mean(), 350.0);
  EXPECT_LT(cm.latency_us.stddev(), 0.1 * cm.latency_us.mean());
}

TEST(BenchExBase, ServerDecompositionIsConsistent) {
  Testbed tb;
  auto& pair = tb.deploy_pair(reporting_config(), "64KB");
  tb.sim().run_until(200_ms);
  const auto& sm = pair.server_metrics();
  ASSERT_GT(sm.total_us.count(), 0u);
  // total = ptime + ctime + wtime + agent reporting overhead (10 us).
  const double sum = sm.ptime_us.mean() + sm.ctime_us.mean() +
                     sm.wtime_us.mean() + 10.0;
  EXPECT_NEAR(sm.total_us.mean(), sum, 0.5);
  // CTime matches the cost model: 5 us base + 80 * 0.8 us.
  EXPECT_NEAR(sm.ctime_us.mean(), 69.0, 2.0);
  // WTime is dominated by the 64 KiB serialization (~61 us @ 1 GiB/s).
  EXPECT_GT(sm.wtime_us.mean(), 55.0);
  EXPECT_LT(sm.wtime_us.mean(), 80.0);
  EXPECT_NE(sm.checksum, 0.0);
}

TEST(BenchExBase, OpenLoopRateIsHonoured) {
  Testbed tb;
  auto& pair = tb.deploy_pair(reporting_config(64 * 1024, 1000.0), "64KB");
  tb.sim().run_until(500_ms);
  const auto& cm = pair.client_metrics();
  EXPECT_NEAR(static_cast<double>(cm.sent), 500.0, 10.0);
}

TEST(BenchExBase, ClosedLoopRespectsQueueDepth) {
  Testbed tb;
  auto& pair = tb.deploy_pair(interferer_config(256 * 1024, 2), "intf");
  tb.sim().run_until(50_ms);
  EXPECT_LE(pair.outstanding(), 2u);
  EXPECT_GT(pair.client_metrics().received, 20u);
}

TEST(BenchExBase, OpenLoopOverloadCarriesTheBacklogInLatency) {
  // 20,000 req/s against a server that needs ~140 us per request, with two
  // ring slots: the feed falls further behind with every request. Stamping
  // the intended arrival time keeps that backlog in the client's latency;
  // stamping the send time would report only the ~290 us round trip.
  auto cfg = reporting_config(64 * 1024, 20000.0, 1);
  cfg.ring_slots = 2;
  Testbed tb;
  auto& pair = tb.deploy_pair(cfg, "overload");
  tb.sim().run_until(200_ms);
  EXPECT_GT(pair.client_metrics().latency_us.percentile(99.0), 10'000.0);
}

TEST(BenchExBase, AgentReceivesReportsAndAddsCost) {
  Testbed tb;
  auto& with = tb.deploy_pair(reporting_config(), "with-agent", true);
  tb.sim().run_until(100_ms);
  const auto snap = with.agent()->snapshot();
  EXPECT_EQ(snap.reports, with.server_metrics().requests);
  EXPECT_GT(snap.mean_us, 0.0);
  EXPECT_NEAR(snap.mean_us, with.server_metrics().total_us.mean(), 5.0);
}

TEST(BenchExBase, NoAgentMeansNoReportingOverhead) {
  Testbed tb1, tb2;
  auto& with = tb1.deploy_pair(reporting_config(), "a", true);
  auto& without = tb2.deploy_pair(reporting_config(), "b", false);
  tb1.sim().run_until(100_ms);
  tb2.sim().run_until(100_ms);
  EXPECT_NEAR(with.server_metrics().total_us.mean() - 10.0,
              without.server_metrics().total_us.mean(), 2.0);
}

TEST(BenchExBase, WarmupDiscardsEarlySamples) {
  auto cfg = reporting_config();
  cfg.metrics_start = 50_ms;
  Testbed tb;
  auto& pair = tb.deploy_pair(cfg, "warm");
  tb.sim().run_until(100_ms);
  const auto& sm = pair.server_metrics();
  EXPECT_GT(sm.requests, sm.total_us.count());
}

TEST(BenchExBase, MixedWorkloadRuns) {
  auto cfg = reporting_config();
  cfg.use_mix = true;
  cfg.arrivals.kind = trace::ArrivalKind::kPoisson;
  cfg.arrivals.rate_per_sec = 1000.0;
  Testbed tb;
  auto& pair = tb.deploy_pair(cfg, "mixed");
  tb.sim().run_until(200_ms);
  EXPECT_GT(pair.server_metrics().requests, 100u);
  EXPECT_EQ(pair.server_metrics().send_errors, 0u);
}

TEST(BenchExBase, DeterministicAcrossRuns) {
  auto run_once = [] {
    Testbed tb;
    auto& pair = tb.deploy_pair(reporting_config(), "64KB");
    tb.sim().run_until(100_ms);
    return std::pair{pair.client_metrics().latency_us.mean(),
                     pair.server_metrics().checksum};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

struct InterferenceResult {
  double mean_us;
  double stddev_us;
  double wtime_us;
  double ptime_us;
  double ctime_us;
};

InterferenceResult run_scenario(bool with_interferer, double intf_cap = 100.0,
                                std::uint32_t intf_buffer = 2 * 1024 * 1024) {
  Testbed tb;
  auto& rep = tb.deploy_pair(reporting_config(), "64KB");
  if (with_interferer) {
    auto& intf = tb.deploy_pair(interferer_config(intf_buffer), "intf");
    if (intf_cap < 100.0) {
      tb.node_a().scheduler().set_cap(intf.server_domain().vcpu(), intf_cap);
    }
  }
  tb.sim().run_until(400_ms);
  const auto& sm = rep.server_metrics();
  return InterferenceResult{rep.client_metrics().latency_us.mean(),
                            rep.client_metrics().latency_us.stddev(),
                            sm.wtime_us.mean(), sm.ptime_us.mean(),
                            sm.ctime_us.mean()};
}

TEST(BenchExInterference, InterfererInflatesLatencyAndJitter) {
  const auto base = run_scenario(false);
  const auto intf = run_scenario(true);
  // The paper's Figure 1: mean shifts right and the distribution spreads.
  EXPECT_GT(intf.mean_us, 1.25 * base.mean_us)
      << "base=" << base.mean_us << " intf=" << intf.mean_us;
  EXPECT_GT(intf.stddev_us, 4.0 * base.stddev_us);
  // WTime absorbs the device-level contention; CTime stays flat (Figure 2).
  EXPECT_GT(intf.wtime_us, 1.5 * base.wtime_us);
  EXPECT_NEAR(intf.ctime_us, base.ctime_us, 2.0);
}

TEST(BenchExInterference, CappingInterfererRestoresLatency) {
  const auto base = run_scenario(false);
  const auto uncapped = run_scenario(true, 100.0);
  // Buffer ratio 2MB/64KB = 32 -> cap 100/32 ~= 3% (the paper's Figure 4
  // equalization point).
  const auto capped = run_scenario(true, 3.125);
  EXPECT_LT(capped.mean_us, uncapped.mean_us);
  // Near-base latency once the cap matches the buffer ratio.
  EXPECT_LT(capped.mean_us, 1.25 * base.mean_us)
      << "base=" << base.mean_us << " capped=" << capped.mean_us
      << " uncapped=" << uncapped.mean_us;
}

TEST(BenchExInterference, EqualPairsBarelyInterfere) {
  // Figure 8's 64KB-64KB case: two identical latency-sensitive VMs coexist.
  Testbed tb;
  auto& p1 = tb.deploy_pair(reporting_config(64 * 1024, 2000.0, 1), "r1");
  auto& p2 = tb.deploy_pair(reporting_config(64 * 1024, 2000.0, 2), "r2");
  tb.sim().run_until(400_ms);
  const auto solo = run_scenario(false);
  EXPECT_LT(p1.client_metrics().latency_us.mean(), 1.15 * solo.mean_us);
  EXPECT_LT(p2.client_metrics().latency_us.mean(), 1.15 * solo.mean_us);
}

}  // namespace
}  // namespace resex::benchex
