// The one setup path from a run's fabric settings to a running fabric
// (core::apply_fabric, core::FabricControls): defaults leave the fabric
// untouched, vl_shift reserves its lane above the qos map, the rate
// controller needs marks to react to, and only a plan that injects something
// arms the fault injector.

#include "core/fabric_setup.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/experiment.hpp"
#include "routing/config.hpp"
#include "sim/simulation.hpp"

namespace resex::core {
namespace {

/// A config with every field apply_fabric reads, routing included (as
/// cluster::ClusterScenarioConfig and the bench modes have).
struct RoutedConfig {
  congestion::CongestionConfig congestion{};
  qos::QosConfig qos{};
  routing::RoutingConfig routing{};
};

/// A fabric built from `config`'s settings, with the controls they call for.
struct World {
  sim::Simulation sim;
  fabric::Fabric fabric;
  FabricControls controls;

  template <typename Config>
  World(const Config& config, std::string_view faults)
      : fabric(sim, configured(config)),
        controls(fabric, config.congestion, fault::FaultPlan::parse(faults),
                 1, nullptr) {}

  template <typename Config>
  static fabric::FabricConfig configured(const Config& config) {
    fabric::FabricConfig f;
    apply_fabric(config, f);
    return f;
  }
};

TEST(FabricSetup, DefaultSettingsLeaveTheFabricConfigUnchanged) {
  fabric::FabricConfig f;
  apply_fabric(ScenarioConfig{}, f);
  EXPECT_TRUE(f == fabric::FabricConfig{});
  apply_fabric(RoutedConfig{}, f);
  EXPECT_TRUE(f == fabric::FabricConfig{});

  const World w(RoutedConfig{}, "");
  EXPECT_EQ(w.controls.rate_controller(), nullptr);
  EXPECT_FALSE(w.controls.faults_on());
  EXPECT_EQ(w.fabric.fault_hook(), nullptr);
  EXPECT_EQ(w.fabric.congestion_hook(), nullptr);
}

TEST(FabricSetup, VlShiftReservesALaneAboveTheQosMap) {
  RoutedConfig cfg;
  cfg.qos.enabled = true;
  cfg.routing.vl_shift = true;
  fabric::FabricConfig f;
  apply_fabric(cfg, f);
  EXPECT_EQ(f.num_vls, cfg.qos.num_vls + 1);
  EXPECT_TRUE(f.routing.vl_shift);
  // No service level maps onto the shift lane.
  EXPECT_LT(*std::max_element(std::begin(f.sl2vl), std::end(f.sl2vl)),
            cfg.qos.num_vls);

  cfg.qos.enabled = false;  // no lanes to shift into: nothing reserved
  fabric::FabricConfig single;
  apply_fabric(cfg, single);
  EXPECT_EQ(single.num_vls, 1u);
}

TEST(FabricSetup, RateControllerOnlyWithMarkingOn) {
  RoutedConfig cfg;
  cfg.congestion.buffer_pkts = 16;
  cfg.congestion.rate_control = true;  // no marks to react to
  EXPECT_EQ(World(cfg, "").controls.rate_controller(), nullptr);

  cfg.congestion.ecn_kmin = 4;
  cfg.congestion.ecn_kmax = 12;
  const World marked(cfg, "");
  ASSERT_NE(marked.controls.rate_controller(), nullptr);
  EXPECT_EQ(marked.fabric.congestion_hook(),
            marked.controls.rate_controller());

  cfg.congestion.rate_control = false;  // marks, but no reaction asked for
  EXPECT_EQ(World(cfg, "").controls.rate_controller(), nullptr);
}

TEST(FabricSetup, ZeroDropRateInstallsNoFaultHook) {
  const World w(RoutedConfig{}, "drop=0");
  EXPECT_FALSE(w.controls.faults_on());
  EXPECT_EQ(w.fabric.fault_hook(), nullptr);

  const World faulted(RoutedConfig{}, "drop=0.01");
  EXPECT_TRUE(faulted.controls.faults_on());
  EXPECT_NE(faulted.fabric.fault_hook(), nullptr);
}

TEST(FabricSetup, FaultGaugesAreRegisteredOnce) {
  ScenarioConfig cfg;
  cfg.warmup = 20 * sim::kMillisecond;
  cfg.duration = 40 * sim::kMillisecond;
  cfg.faults = "drop=0.01";
  cfg.collect_metrics = true;
  const auto result = run_scenario(cfg);
  const auto& samples = result.metrics.samples;
  for (const char* name : {"fault.drops_injected", "fault.corrupts_injected"}) {
    EXPECT_EQ(std::count_if(samples.begin(), samples.end(),
                            [name](const obs::MetricSample& s) {
                              return s.name == name;
                            }),
              1)
        << name;
  }
  const auto drops = std::find_if(
      samples.begin(), samples.end(),
      [](const obs::MetricSample& s) { return s.name == "fault.drops_injected"; });
  ASSERT_NE(drops, samples.end());
  EXPECT_GT(drops->value, 0.0);
}

}  // namespace
}  // namespace resex::core
