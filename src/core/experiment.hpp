#pragma once
// Canonical experiment harness for the Section VII evaluation: builds the
// two-node testbed, deploys the reporting and interfering BenchEx pairs,
// optionally wires IBMon + a ResEx controller over the server node, runs,
// and collects every metric the figures need. All nine figure benches and
// the examples drive this one entry point with different configurations.

#include <optional>
#include <string>
#include <vector>

#include "congestion/config.hpp"
#include "qos/config.hpp"
#include "core/controller.hpp"
#include "core/testbed.hpp"
#include "obs/metrics.hpp"
#include "sim/observe.hpp"

namespace resex::core {

enum class PolicyKind : std::uint8_t {
  kNone,               // no ResEx (base / interfered cases)
  kFreeMarket,
  kIOShares,
  kStaticReservation,  // worst-case caps baseline (ablation)
};

struct ScenarioConfig {
  // Reporting (latency-sensitive) workload: "the 64KB VM(s)" at 2000
  // requests/s, core::reporting_config's defaults.
  std::uint32_t reporting_count = 1;  // Figure 2 sweeps 1..3 pairs
  /// Arrival process of the reporting feed. The controlled interference
  /// experiments use the near-deterministic default (the paper's Figure 1
  /// "Normal" distribution is a tight spike); Figure 2 uses Poisson order
  /// flow, whose queueing makes PTime visible.
  trace::ArrivalKind reporting_arrivals = trace::ArrivalKind::kFixedRate;

  // Interfering workload: "the 2MB VM".
  bool with_interferer = true;
  std::uint32_t intf_buffer = 2 * 1024 * 1024;
  std::uint32_t intf_depth = 2;
  /// 0 = saturating closed loop; > 0 = slow open loop at this rate
  /// (Figure 8's "no interference" 2MB case uses ~10 req/s).
  double intf_rate = 0.0;
  /// Manually applied static CPU cap for the interferer (Figures 3-4 sweep
  /// this without any policy). 100 = uncapped.
  double intf_cap = 100.0;
  /// Closed-loop think time between the interferer's requests, in
  /// microseconds. 0 = back-to-back saturation. Figure 3 paces the
  /// interferer like a real second application instance.
  double intf_think_us = 0.0;

  // ResEx configuration.
  PolicyKind policy = PolicyKind::kNone;
  ResosConfig resos{};
  double sla_threshold_pct = 15.0;
  /// SLA baseline (server-side total latency) for the reporting VMs. When
  /// unset and a policy needs it, the harness measures the base case first.
  std::optional<double> baseline_mean_us{};
  /// StaticReservation: permanent cap applied to the interferer.
  double static_cap_pct = 10.0;
  /// Priority weight of each reporting VM in the Resos distribution
  /// (Section V-C: "Resos can also be distributed unequally, e.g., based on
  /// priority of the VMs"); the interferer's is 1. A higher-weight VM gets a
  /// larger share of the epoch's I/O Resos.
  double reporting_weight = 1.0;

  // Fault injection (resex::fault).
  /// Fault-plan spec string (see fault::FaultPlan::parse). Empty = no faults;
  /// the fabric then runs the seed's unreliable-but-lossless datapath and
  /// produces byte-identical results to builds without resex::fault.
  std::string faults;

  // Switch congestion (resex::congestion). Defaults off: infinite buffers,
  // no marking, byte-identical to the historical lossless fabric. The
  // baseline probe keeps these settings — finite buffers are the fabric's
  // physics, not a fault.
  congestion::CongestionConfig congestion{};

  // Service levels / virtual lanes (resex::qos). Defaults off: one lane,
  // byte-identical to the single-class fabric.
  qos::QosConfig qos{};

  // Run control.
  sim::SimDuration warmup = 100 * sim::kMillisecond;
  sim::SimDuration duration = sim::kSecond;
  std::uint64_t seed = 1;

  // Observability (resex::obs).
  /// When non-empty, enable the sim-time tracer for this run and write the
  /// recorded events here at the end (Chrome trace_event JSON; a ".jsonl"
  /// suffix selects JSONL). A failed write is reported on stderr but does
  /// not fail the scenario.
  std::string trace_path;
  /// When true, snapshot the simulation's metrics registry into
  /// ScenarioResult::metrics after the run.
  bool collect_metrics = false;
  /// When nonzero (and collect_metrics is set), also snapshot the registry
  /// periodically during the run into ScenarioResult::metrics_series,
  /// turning --metrics-json output into a time series.
  sim::SimDuration metrics_period = 0;
};

/// Per-VM outcome of a scenario.
struct VmSummary {
  std::string name;
  std::uint64_t requests = 0;
  double client_mean_us = 0.0;
  double client_stddev_us = 0.0;
  double client_p99_us = 0.0;
  double ptime_us = 0.0;
  double ctime_us = 0.0;
  double wtime_us = 0.0;
  double ptime_sd_us = 0.0;
  double ctime_sd_us = 0.0;
  double wtime_sd_us = 0.0;
  double total_us = 0.0;  // server-side total (what the agent reports)
  sim::Samples client_latency_us;  // full sample set (Figure 1 histograms)
};

struct ScenarioResult {
  std::vector<VmSummary> reporting;  // one per reporting pair
  std::optional<VmSummary> interferer;
  /// Interferer offered load on the shared host port, MB/s.
  double interferer_mbps = 0.0;
  /// Controller trace (empty without a policy).
  std::vector<TimelineRecord> timeline;
  hv::DomainId reporting_vm_id = 0;   // first reporting server domain
  hv::DomainId interferer_vm_id = 0;  // interferer server domain
  /// Measured (or configured) SLA baseline used by the detector.
  double baseline_mean_us = 0.0;
  /// End-of-run metrics snapshot (empty unless collect_metrics was set).
  obs::MetricsSnapshot metrics;
  /// Periodic snapshots taken every metrics_period (empty unless both
  /// collect_metrics and metrics_period were set).
  std::vector<obs::MetricsSnapshot> metrics_series;
  /// Events dispatched and simulated time covered by the run.
  sim::RunCost cost;
};

/// Run one scenario to completion and summarize it.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& config);

/// Base-case server total latency (the SLA baseline the paper's operators
/// would configure): the same reporting workload, no interferer, no policy.
[[nodiscard]] double measure_base_total_us(ScenarioConfig config);

}  // namespace resex::core
