// Integration tests: the full ResEx loop (IBMon -> detector -> policy ->
// XenStat caps) over live BenchEx traffic. These reproduce, at test scale,
// the qualitative claims of the paper's Section VII.

#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace resex::core {
namespace {

using namespace resex::sim::literals;

ScenarioConfig quick(PolicyKind policy, bool with_interferer = true) {
  ScenarioConfig cfg;
  cfg.policy = policy;
  cfg.with_interferer = with_interferer;
  cfg.warmup = 100_ms;
  cfg.duration = 900_ms;
  return cfg;
}

TEST(Controller, TimelineRecordsEveryIntervalAndVm) {
  auto cfg = quick(PolicyKind::kFreeMarket);
  cfg.duration = 400_ms;
  const auto r = run_scenario(cfg);
  // ~500 intervals x 2 VMs.
  EXPECT_GT(r.timeline.size(), 800u);
  bool saw_rep = false, saw_intf = false;
  for (const auto& rec : r.timeline) {
    saw_rep |= rec.vm == r.reporting_vm_id;
    saw_intf |= rec.vm == r.interferer_vm_id;
    EXPECT_GE(rec.cap, 1.0);
    EXPECT_LE(rec.cap, 100.0);
    EXPECT_GE(rec.resos_balance, 0.0);
  }
  EXPECT_TRUE(saw_rep);
  EXPECT_TRUE(saw_intf);
}

TEST(Controller, FreeMarketDrainsInterfererResosAndStepsCapDown) {
  const auto r = run_scenario(quick(PolicyKind::kFreeMarket));
  // Find the interferer's minimum balance fraction and cap over the run.
  double min_balance = 1e18, min_cap = 100.0;
  double rep_min_cap = 100.0;
  for (const auto& rec : r.timeline) {
    if (rec.vm == r.interferer_vm_id) {
      min_balance = std::min(min_balance, rec.resos_balance);
      min_cap = std::min(min_cap, rec.cap);
    } else if (rec.vm == r.reporting_vm_id) {
      rep_min_cap = std::min(rep_min_cap, rec.cap);
    }
  }
  // The 2MB VM exhausts its allocation within the epoch and gets throttled.
  EXPECT_LT(min_balance, 0.2 * (100000.0 + 1048576.0 / 2.0));
  EXPECT_LT(min_cap, 95.0);
  // The reporting VM stays solvent and uncapped.
  EXPECT_DOUBLE_EQ(rep_min_cap, 100.0);
}

TEST(Controller, FreeMarketReplenishesAtEpoch) {
  auto cfg = quick(PolicyKind::kFreeMarket);
  cfg.warmup = 100_ms;
  cfg.duration = 1500_ms;  // crosses the t=1s epoch boundary
  const auto r = run_scenario(cfg);
  // Interferer balance right after the epoch boundary is back near full.
  double post_epoch_balance = 0.0;
  for (const auto& rec : r.timeline) {
    if (rec.vm == r.interferer_vm_id && rec.at > 1_s &&
        rec.at < 1_s + 20_ms) {
      post_epoch_balance = std::max(post_epoch_balance, rec.resos_balance);
    }
  }
  EXPECT_GT(post_epoch_balance, 0.8 * (100000.0 + 1048576.0 / 2.0));
}

TEST(Controller, IOSharesRaisesInterfererPriceOnViolation) {
  const auto r = run_scenario(quick(PolicyKind::kIOShares));
  double max_rate_intf = 0.0, max_rate_rep = 0.0, min_cap_intf = 100.0;
  bool saw_violation = false;
  for (const auto& rec : r.timeline) {
    if (rec.vm == r.interferer_vm_id) {
      max_rate_intf = std::max(max_rate_intf, rec.charge_rate);
      min_cap_intf = std::min(min_cap_intf, rec.cap);
    } else {
      max_rate_rep = std::max(max_rate_rep, rec.charge_rate);
      saw_violation |= rec.intf_pct > 0.0;
    }
  }
  EXPECT_TRUE(saw_violation);
  EXPECT_GT(max_rate_intf, 1.5);
  EXPECT_LT(min_cap_intf, 70.0);
  // Congestion pricing is targeted: the suffering VM's price never rises.
  EXPECT_DOUBLE_EQ(max_rate_rep, 1.0);
}

TEST(Controller, TwoVictimsBothProtectedByIOShares) {
  // The Algorithm 2 loop iterates over all monitored VMs: with two
  // latency-sensitive VMs suffering, both report violations, both direct
  // the congestion charge at the same bulk sender, and both recover.
  ScenarioConfig cfg;
  cfg.warmup = 100_ms;
  cfg.duration = 1000_ms;
  cfg.reporting_count = 2;

  const auto interfered = run_scenario(cfg);
  auto ios_cfg = cfg;
  ios_cfg.policy = PolicyKind::kIOShares;
  const auto ios = run_scenario(ios_cfg);

  ASSERT_EQ(ios.reporting.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_LT(ios.reporting[i].client_mean_us,
              interfered.reporting[i].client_mean_us)
        << "victim " << i;
  }
  EXPECT_LT(ios.interferer_mbps, 0.6 * interfered.interferer_mbps);
}

TEST(Controller, MonitorAfterStartRejected) {
  Testbed tb;
  auto& pair = tb.deploy_pair(reporting_config(), "r");
  ibmon::IbMon mon(tb.sim());
  ResExController ctrl(tb.node_a(), mon,
                       std::make_unique<FreeMarketPolicy>());
  ctrl.monitor(pair.server_domain(), pair.agent());
  ctrl.start();
  auto& pair2 = tb.deploy_pair(reporting_config(64 * 1024, 1000.0, 9), "r2");
  EXPECT_THROW(ctrl.monitor(pair2.server_domain(), nullptr),
               std::logic_error);
}

TEST(Controller, RequiresPolicy) {
  Testbed tb;
  ibmon::IbMon mon(tb.sim());
  EXPECT_THROW(ResExController(tb.node_a(), mon, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace resex::core
