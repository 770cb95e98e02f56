// End-to-end scenario tests mirroring the paper's evaluation claims:
//  - interference inflates latency/jitter (Figures 1-2),
//  - FreeMarket recovers part of it, IOShares nearly all (Figures 5, 7, 9),
//  - both back off in the no-interference cases (Figure 8),
//  - ResEx cuts interference-induced inflation by >= 30% (headline claim).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/experiment.hpp"

namespace resex::core {
namespace {

using namespace resex::sim::literals;

struct Outcomes {
  double base;
  double interfered;
  double freemarket;
  double ioshares;
};

const Outcomes& outcomes() {
  static const Outcomes o = [] {
    ScenarioConfig cfg;
    cfg.warmup = 100_ms;
    cfg.duration = 1200_ms;

    Outcomes out{};
    auto base_cfg = cfg;
    base_cfg.with_interferer = false;
    const auto base = run_scenario(base_cfg);
    out.base = base.reporting[0].client_mean_us;
    const double baseline_total = base.reporting[0].total_us;

    const auto intf = run_scenario(cfg);
    out.interfered = intf.reporting[0].client_mean_us;

    auto fm_cfg = cfg;
    fm_cfg.policy = PolicyKind::kFreeMarket;
    fm_cfg.baseline_mean_us = baseline_total;
    out.freemarket = run_scenario(fm_cfg).reporting[0].client_mean_us;

    auto ios_cfg = cfg;
    ios_cfg.policy = PolicyKind::kIOShares;
    ios_cfg.baseline_mean_us = baseline_total;
    out.ioshares = run_scenario(ios_cfg).reporting[0].client_mean_us;
    return out;
  }();
  return o;
}

TEST(Evaluation, InterferenceInflatesLatency) {
  const auto& o = outcomes();
  EXPECT_GT(o.interfered, 1.3 * o.base)
      << "base=" << o.base << " interfered=" << o.interfered;
}

TEST(Evaluation, FreeMarketImprovesOverInterfered) {
  const auto& o = outcomes();
  EXPECT_LT(o.freemarket, o.interfered)
      << "fm=" << o.freemarket << " intf=" << o.interfered;
}

TEST(Evaluation, IOSharesApproachesBase) {
  const auto& o = outcomes();
  EXPECT_LT(o.ioshares, o.freemarket + 1e-9)
      << "ios=" << o.ioshares << " fm=" << o.freemarket;
  EXPECT_LT(o.ioshares, 1.35 * o.base)
      << "ios=" << o.ioshares << " base=" << o.base;
}

TEST(Evaluation, HeadlineThirtyPercentReduction) {
  // "ResEx can reduce the latency interference by as much as 30%".
  const auto& o = outcomes();
  const double inflation = o.interfered - o.base;
  const double recovered = o.interfered - o.ioshares;
  EXPECT_GT(recovered, 0.3 * inflation)
      << "base=" << o.base << " intf=" << o.interfered
      << " ios=" << o.ioshares;
}

TEST(Evaluation, NoInterferenceCasesStayNearBase) {
  // Figure 8: 64KB+64KB and 64KB + slow 2MB must sit at base latency under
  // both policies (detect interference, but also back off without it).
  ScenarioConfig cfg;
  cfg.warmup = 100_ms;
  cfg.duration = 800_ms;

  auto base_cfg = cfg;
  base_cfg.with_interferer = false;
  const auto base = run_scenario(base_cfg);
  const double base_us = base.reporting[0].client_mean_us;
  const double baseline_total = base.reporting[0].total_us;

  for (const auto policy : {PolicyKind::kFreeMarket, PolicyKind::kIOShares}) {
    SCOPED_TRACE(policy == PolicyKind::kFreeMarket ? "FreeMarket" : "IOShares");
    // Case 1: a second identical 64KB VM.
    auto twin = cfg;
    twin.with_interferer = true;
    twin.intf_buffer = 64 * 1024;
    twin.intf_rate = 2000.0;  // same open-loop rate as the reporting VM
    twin.policy = policy;
    twin.baseline_mean_us = baseline_total;
    const auto r1 = run_scenario(twin);
    EXPECT_LT(r1.reporting[0].client_mean_us, 1.25 * base_us)
        << "64KB-64KB";

    // Case 2: the 2MB VM sending only ~10 requests/s.
    auto slow = cfg;
    slow.with_interferer = true;
    slow.intf_rate = 10.0;
    slow.policy = policy;
    slow.baseline_mean_us = baseline_total;
    const auto r2 = run_scenario(slow);
    EXPECT_LT(r2.reporting[0].client_mean_us, 1.25 * base_us)
        << "64KB-2MB-nointf";
  }
}

TEST(Evaluation, StaticReservationHelpsButWastesWhenIdle) {
  ScenarioConfig cfg;
  cfg.warmup = 100_ms;
  cfg.duration = 800_ms;
  cfg.policy = PolicyKind::kStaticReservation;
  cfg.static_cap_pct = 5.0;
  cfg.baseline_mean_us = 150.0;
  const auto capped = run_scenario(cfg);

  auto uncapped_cfg = cfg;
  uncapped_cfg.policy = PolicyKind::kNone;
  const auto uncapped = run_scenario(uncapped_cfg);

  // The static cap protects the reporting VM...
  EXPECT_LT(capped.reporting[0].client_mean_us,
            uncapped.reporting[0].client_mean_us);
  // ...but strangles the interferer's throughput far below what dynamic
  // policies allow (the work-conserving argument of Section V).
  EXPECT_LT(capped.interferer_mbps, 0.6 * uncapped.interferer_mbps);
}

TEST(Evaluation, PriorityWeightsShiftFreeMarketThrottling) {
  // Section V-C: Resos "can also be distributed unequally, e.g., based on
  // priority of the VMs". Giving the reporting VM 3x the weight shrinks the
  // interferer's I/O allocation, so FreeMarket throttles it earlier and the
  // reporting VM fares better than under equal shares.
  ScenarioConfig cfg;
  cfg.warmup = 100_ms;
  cfg.duration = 1200_ms;
  cfg.policy = PolicyKind::kFreeMarket;
  cfg.baseline_mean_us = 150.0;

  const auto equal = run_scenario(cfg);
  auto weighted_cfg = cfg;
  weighted_cfg.reporting_weight = 3.0;
  const auto weighted = run_scenario(weighted_cfg);

  EXPECT_LT(weighted.interferer_mbps, equal.interferer_mbps);
  EXPECT_LT(weighted.reporting[0].client_mean_us,
            equal.reporting[0].client_mean_us)
      << "equal=" << equal.reporting[0].client_mean_us
      << " weighted=" << weighted.reporting[0].client_mean_us;
}

TEST(Evaluation, MeasureBaseHelper) {
  ScenarioConfig cfg;
  cfg.warmup = 100_ms;
  const double base = measure_base_total_us(cfg);
  EXPECT_GT(base, 100.0);
  EXPECT_LT(base, 250.0);
}

TEST(Evaluation, InterferenceShiftsTheWholeDistribution) {
  // Figure 1 at the distribution level: a same-seed rerun reproduces the
  // normal latency sample exactly, while the interfered sample sits above
  // it almost everywhere: its 5th percentile exceeds the normal 95th, so the
  // two empirical CDFs differ by at least 0.9 (the Kolmogorov-Smirnov
  // distance) at the normal 95th percentile.
  ScenarioConfig cfg;
  cfg.warmup = 100_ms;
  cfg.duration = 500_ms;
  auto base_cfg = cfg;
  base_cfg.with_interferer = false;
  const auto base1 = run_scenario(base_cfg);
  const auto base2 = run_scenario(base_cfg);
  const auto intf = run_scenario(cfg);
  const sim::Samples& normal = base1.reporting[0].client_latency_us;
  const sim::Samples& interfered = intf.reporting[0].client_latency_us;
  EXPECT_EQ(normal.values(), base2.reporting[0].client_latency_us.values());
  EXPECT_GT(interfered.percentile(5.0), normal.percentile(95.0))
      << "normal p50/p95 " << normal.percentile(50.0) << "/"
      << normal.percentile(95.0) << ", interfered p5/p50 "
      << interfered.percentile(5.0) << "/" << interfered.percentile(50.0);
}

TEST(Evaluation, ScenarioResultShapes) {
  ScenarioConfig cfg;
  cfg.warmup = 50_ms;
  cfg.duration = 300_ms;
  cfg.reporting_count = 2;
  const auto r = run_scenario(cfg);
  EXPECT_EQ(r.reporting.size(), 2u);
  ASSERT_TRUE(r.interferer.has_value());
  EXPECT_GT(r.interferer_mbps, 100.0);
  EXPECT_GT(r.reporting[0].requests, 100u);
  EXPECT_GT(r.reporting[0].client_latency_us.count(), 100u);
  EXPECT_TRUE(r.timeline.empty());  // no policy -> no controller
}

TEST(Evaluation, ScenarioCapturesTraceAndMetricsWhenAsked) {
  ScenarioConfig cfg;
  cfg.warmup = 20_ms;
  cfg.duration = 60_ms;
  cfg.policy = PolicyKind::kFreeMarket;  // exercise ibmon + controller spans
  cfg.trace_path = ::testing::TempDir() + "resex_scenario_trace.json";
  cfg.collect_metrics = true;
  const auto r = run_scenario(cfg);

  // The metrics snapshot rides along in the result, stamped at sim end.
  EXPECT_FALSE(r.metrics.samples.empty());
  EXPECT_EQ(r.metrics.at, cfg.warmup + cfg.duration);
  auto value_of = [&r](const std::string& name) -> double {
    for (const auto& s : r.metrics.samples) {
      if (s.name == name) return s.kind == obs::MetricKind::kHistogram
                                     ? static_cast<double>(s.count)
                                     : s.value;
    }
    return -1.0;
  };
  EXPECT_GT(value_of("fabric.transfers"), 0.0);
  EXPECT_GT(value_of("fabric.wire_latency_ns"), 0.0);
  EXPECT_GT(value_of("core.intervals"), 0.0);
  EXPECT_GT(value_of("ibmon.samples"), 0.0);

  // The trace file landed and shows all three layers plus the frame span.
  std::ifstream in(cfg.trace_path);
  ASSERT_TRUE(in.good()) << cfg.trace_path;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string trace = ss.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"scenario\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"core\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"fabric\""), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"hv\""), std::string::npos);
  std::remove(cfg.trace_path.c_str());
}

TEST(Evaluation, PeriodicMetricsSnapshotsFormATimeSeries) {
  ScenarioConfig cfg;
  cfg.warmup = 20_ms;
  cfg.duration = 60_ms;
  cfg.collect_metrics = true;
  cfg.metrics_period = 10_ms;
  const auto r = run_scenario(cfg);
  // One snapshot per period over the 80 ms run (none at t=0).
  ASSERT_EQ(r.metrics_series.size(), 8u);
  for (std::size_t i = 0; i < r.metrics_series.size(); ++i) {
    EXPECT_EQ(r.metrics_series[i].at, (i + 1) * 10_ms);
    EXPECT_FALSE(r.metrics_series[i].samples.empty());
  }
  // Counters are cumulative, so the series is monotone in transfers.
  auto transfers = [](const obs::MetricsSnapshot& s) {
    for (const auto& m : s.samples) {
      if (m.name == "fabric.transfers") return m.value;
    }
    return -1.0;
  };
  EXPECT_GE(transfers(r.metrics_series.back()),
            transfers(r.metrics_series.front()));
  EXPECT_GT(transfers(r.metrics_series.back()), 0.0);

  // Without a period the series stays empty (snapshot-only behaviour).
  ScenarioConfig flat = cfg;
  flat.metrics_period = 0;
  EXPECT_TRUE(run_scenario(flat).metrics_series.empty());
}

TEST(Evaluation, EmptyFaultPlanLeavesScenarioByteIdentical) {
  // resex::fault is linked into every scenario run; with no plan armed the
  // fabric must keep its perfect-link fast path, bit for bit.
  ScenarioConfig cfg;
  cfg.warmup = 20_ms;
  cfg.duration = 60_ms;
  const auto plain = run_scenario(cfg);
  ScenarioConfig empty_faults = cfg;
  empty_faults.faults = "";  // explicit empty spec == no plan at all
  const auto faulted = run_scenario(empty_faults);
  EXPECT_EQ(plain.reporting[0].requests, faulted.reporting[0].requests);
  EXPECT_EQ(plain.reporting[0].client_mean_us,
            faulted.reporting[0].client_mean_us);
  EXPECT_EQ(plain.reporting[0].client_latency_us.values(),
            faulted.reporting[0].client_latency_us.values());
  EXPECT_EQ(plain.interferer_mbps, faulted.interferer_mbps);
}

TEST(Evaluation, UntracedScenarioRecordsNothing) {
  ScenarioConfig cfg;
  cfg.warmup = 20_ms;
  cfg.duration = 40_ms;
  const auto r = run_scenario(cfg);
  EXPECT_TRUE(r.metrics.samples.empty());  // collect_metrics defaults off
  EXPECT_FALSE(r.reporting.empty());
}

}  // namespace
}  // namespace resex::core
