#pragma once
// Observer: the one place a run attaches its observability. Every driver
// that owns a Simulation — core::run_scenario, cluster::run_cluster_scenario
// and the runner's hand-built trials — goes through the same four steps:
//
//   1. construct    enables the tracer (before set-up, so set-up is traced)
//   2. start()      spawns the periodic snapshot / counter-track loop (after
//                   the workloads spawn, just before the run)
//   3. finish()     records the run's cost and takes the final metrics
//                   snapshot...
//   4.              ...and writes the trace, reporting a failure on stderr
//
// The cost and the snapshots land in caller-owned slots, so a scenario
// result (or a runner trial outcome) carries them without another copy.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace resex::sim {

/// What one run records about itself.
struct ObsSettings {
  /// Enable the sim-time tracer and write its events here at the end of the
  /// run (Chrome trace_event JSON; a ".jsonl" suffix selects JSONL). Empty =
  /// tracing off.
  std::string trace_path;
  /// Snapshot the metrics registry at the end of the run.
  bool collect_metrics = false;
  /// When nonzero, also snapshot every period into the series (with
  /// collect_metrics) and stream every metric into the trace as counter
  /// tracks (with tracing), lining the time series up under the spans.
  SimDuration metrics_period = 0;
};

/// What observed runs cost the simulator: the events they dispatched and
/// the simulated time they covered.
struct RunCost {
  std::uint64_t events = 0;
  SimTime sim_ns = 0;

  RunCost& operator+=(const RunCost& other) noexcept {
    events += other.events;
    sim_ns += other.sim_ns;
    return *this;
  }
};

class Observer {
 public:
  /// Step 1. `metrics`/`series` receive the final and periodic snapshots,
  /// and the run's events and simulated time are added to `cost`.
  Observer(Simulation& sim, ObsSettings settings,
           obs::MetricsSnapshot& metrics,
           std::vector<obs::MetricsSnapshot>& series, RunCost& cost);

  /// Step 2: spawn the periodic loop when a period is set and something
  /// consumes it.
  void start();

  /// Steps 3 and 4. A failed trace write is reported, not thrown: the run
  /// itself succeeded, and losing the trace is not worth losing its results.
  void finish();

 private:
  Simulation* sim_;
  ObsSettings settings_;
  obs::MetricsSnapshot* metrics_;
  std::vector<obs::MetricsSnapshot>* series_;
  RunCost* cost_;
};

}  // namespace resex::sim
