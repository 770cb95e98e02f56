// Ablation A5: SLA violations under fabric faults, with and without ResEx.
//
// The fault plan injects seed-driven packet loss on every channel; the
// RC-style reliable transport (resex::fault arms it) retransmits until the
// retry budget is spent, so every request still completes — but each
// retransmit costs at least one retransmission timeout, inflating the tail.
// The question this ablation answers: does ResEx (IOShares pricing off
// IBMon's view of the fabric) still protect the reporting VM's SLA when the
// fabric itself is misbehaving, or does pricing on a degraded signal make
// matters worse than no policy at all?
//
// Columns: client mean/p99 RTT, completed requests, the share of requests
// over the SLA bound (base-case 196 us x 1.15 ~= 225 us, the paper's 15 %
// threshold), and the fabric's own health counters (retransmits, drops,
// fatal QP errors) from the per-trial metrics snapshot.

#include <string>
#include <string_view>

#include "bench_common.hpp"

namespace {

using resex::core::ScenarioResult;

/// Base-case client RTT is 196 us (EXPERIMENTS.md); the paper's 15 % SLA
/// threshold puts the violation bound at ~225 us.
constexpr double kSlaBoundUs = 196.0 * 1.15;

double violations_pct(const ScenarioResult& r) {
  const auto& samples = r.reporting[0].client_latency_us.values();
  if (samples.empty()) return 0.0;
  std::size_t over = 0;
  for (const double v : samples) over += v > kSlaBoundUs ? 1u : 0u;
  return 100.0 * static_cast<double>(over) /
         static_cast<double>(samples.size());
}

/// Exact-name lookup in the trial's metrics snapshot (0 when absent — e.g.
/// fault-free trials never register the injector's gauges).
double metric(const ScenarioResult& r, std::string_view name) {
  for (const auto& s : r.metrics.samples) {
    if (s.name == name) return s.value;
  }
  return 0.0;
}

/// Sum of every per-channel `fabric.<ch>.<leaf>` gauge.
double channel_sum(const ScenarioResult& r, std::string_view leaf) {
  double total = 0.0;
  for (const auto& s : r.metrics.samples) {
    if (s.name.starts_with("fabric.") && s.name.ends_with(leaf)) {
      total += s.value;
    }
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resex;
  using namespace resex::bench;

  const auto opts = parse_cli(argc, argv, kScenarioFlags);

  auto base = figure_config();
  // The health counters come from the snapshot even without --metrics-json.
  base.collect_metrics = true;

  runner::Sweep sweep(base);
  sweep.axis("policy",
             {{"none",
               [](core::ScenarioConfig& c) { c.policy = core::PolicyKind::kNone; }},
              {"IOShares",
               [](core::ScenarioConfig& c) {
                 c.policy = core::PolicyKind::kIOShares;
               }}});
  sweep.axis("drop_pct", {0.0, 0.05, 0.1, 0.25, 0.5, 1.0},
             [](core::ScenarioConfig& c, double pct) {
               c.faults = pct > 0.0
                              ? "drop=" + std::to_string(pct / 100.0)
                              : "";
             });

  std::vector<runner::Metric> metrics{
      {"client_us",
       [](const ScenarioResult& r) { return r.reporting[0].client_mean_us; }},
      {"p99_us",
       [](const ScenarioResult& r) { return r.reporting[0].client_p99_us; }},
      {"requests",
       [](const ScenarioResult& r) {
         return static_cast<double>(r.reporting[0].requests);
       }},
      {"viol_pct", violations_pct},
      {"retransmits",
       [](const ScenarioResult& r) { return metric(r, "fabric.retransmits"); }},
      {"dropped",
       [](const ScenarioResult& r) {
         return channel_sum(r, ".packets_dropped");
       }},
      {"qp_errors",
       [](const ScenarioResult& r) {
         return metric(r, "fabric.qp_fatal_errors");
       }},
      {"intf_MBps",
       [](const ScenarioResult& r) { return r.interferer_mbps; }},
  };

  return run_figure_bench(
      opts,
      "Ablation A5: SLA violations vs fault rate, with and without ResEx",
      "Reporting VM: 64KB @ 2000 req/s, interferer: 2MB closed loop. Uniform "
      "packet loss injected on every channel; reliable transport retransmits. "
      "SLA bound = base 196 us + 15 %.",
      sweep, std::move(metrics));
}
