#pragma once
// Trials: the unit of work the runner schedules, and the one loop that runs
// them. Every point is replicated --seeds times; trial (p, r) calls the
// point's function with a TrialContext carrying its derived seed
// (sim::derive(point seed, r)), its own trace path and the metrics settings.
// Trials share no mutable state — each builds its own simulation — so any
// number of them run concurrently and still produce values, traces and
// metrics byte-identical to a serial run.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "runner/options.hpp"
#include "sim/observe.hpp"

namespace resex::runner {

/// One displayed parameter assignment of a point ("cap_pct" = "50").
struct Param {
  std::string name;
  std::string value;
};

/// What one trial knows about itself.
struct TrialContext {
  std::size_t point = 0;
  std::size_t replicate = 0;
  std::uint64_t seed = 0;  // sim::derive(point seed, replicate)
  /// This trial's trace path (trial_trace_path of --trace) and the
  /// --metrics-json / --metrics-period settings.
  sim::ObsSettings obs;
  /// The slots this trial's final snapshot and periodic series land in.
  obs::MetricsSnapshot* metrics = nullptr;
  std::vector<obs::MetricsSnapshot>* metrics_series = nullptr;
  /// The slot the cost of this trial's observed runs adds up in.
  sim::RunCost* cost = nullptr;

  /// Attach this trial's observability to a hand-built simulation: the
  /// tracer is enabled now; call start() just before running and finish()
  /// after.
  [[nodiscard]] sim::Observer observe(sim::Simulation& sim) const {
    return sim::Observer(sim, obs, *metrics, *metrics_series, *cost);
  }

  /// Overlay this trial's seed and observability onto a scenario config
  /// (core::ScenarioConfig, cluster::ClusterScenarioConfig), which then
  /// observes itself. A config that collects metrics on its own keeps
  /// doing so.
  template <typename Config>
  void apply(Config& config) const {
    config.seed = seed;
    config.trace_path = obs.trace_path;
    if (obs.collect_metrics) config.collect_metrics = true;
    if (obs.metrics_period > 0) config.metrics_period = obs.metrics_period;
  }

  /// Move a finished scenario result's snapshots and cost into this
  /// trial's slots.
  template <typename Result>
  void keep(Result& result) const {
    *metrics = std::move(result.metrics);
    *metrics_series = std::move(result.metrics_series);
    *cost += result.cost;
  }
};

/// A point whose trial maps its context to one value per metric.
struct GenericPoint {
  std::string label;
  std::vector<Param> params;
  std::uint64_t seed = 1;  // base seed; replicates derive from it
  std::function<std::vector<double>(const TrialContext&)> run;
};

struct TrialOutcome {
  std::size_t point = 0;
  std::size_t replicate = 0;
  std::uint64_t seed = 0;
  std::vector<double> values;  // one per metric
  /// Final snapshot and periodic series (empty unless collected).
  obs::MetricsSnapshot metrics;
  std::vector<obs::MetricsSnapshot> metrics_series;
  /// What its observed runs cost the simulator.
  sim::RunCost cost;
};

/// All trials of one point, ordered by replicate.
struct PointOutcome {
  std::string label;
  std::vector<Param> params;
  std::vector<TrialOutcome> trials;
};

/// Run every point opts.seeds times on a pool of trial_workers() workers.
/// opts.seed overrides every point's base seed; --trace and the
/// metrics flags reach each trial through its context. Outcomes are ordered
/// by (point, replicate) whatever the pool size.
[[nodiscard]] std::vector<PointOutcome> run_trials(
    std::vector<GenericPoint> points, const RunnerOptions& opts);

/// The workers run_trials starts for `trials` trials: opts.resolved_jobs(),
/// but never more than there are trials (and at least one).
[[nodiscard]] std::size_t trial_workers(const RunnerOptions& opts,
                                        std::size_t trials);

/// `path` with `tag` inserted before its file extension ("out.json", ".x"
/// -> "out.x.json"), or appended when it has none. Empty stays empty.
[[nodiscard]] std::string tagged_path(const std::string& path,
                                      const std::string& tag);

/// Per-trial trace file path derived from a base path: trial (0, 0) gets
/// `base` verbatim (the single-trial case keeps the name the user asked
/// for); every other trial inserts ".p<point>r<replicate>" before the file
/// extension ("out.json" -> "out.p1r2.json"). Empty base stays empty.
[[nodiscard]] std::string trial_trace_path(const std::string& base,
                                           std::size_t point,
                                           std::size_t replicate);

}  // namespace resex::runner
