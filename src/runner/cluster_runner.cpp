#include "runner/cluster_runner.hpp"

#include "runner/thread_pool.hpp"
#include "runner/trial.hpp"
#include "sim/rng.hpp"

namespace resex::runner {

std::vector<ClusterOutcome> run_cluster(std::vector<ClusterPoint> points,
                                        const RunnerOptions& opts) {
  if (opts.seed.has_value()) {
    for (auto& p : points) p.config.seed = *opts.seed;
  }
  if (!opts.faults.empty()) {
    for (auto& p : points) p.config.faults = opts.faults;
  }
  if (opts.congestion_set()) {
    for (auto& p : points) {
      p.config.congestion = opts.congestion_config(p.config.congestion);
    }
  }
  if (opts.qos_set()) {
    for (auto& p : points) p.config.qos = opts.qos;
  }
  if (opts.routing_set()) {
    for (auto& p : points) p.config.routing = opts.routing;
  }
  const std::size_t seeds = opts.seeds == 0 ? 1 : opts.seeds;
  const auto metrics_period = static_cast<sim::SimDuration>(
      opts.metrics_period_ms * static_cast<double>(sim::kMillisecond));

  // Materialized (point, replicate) trial configs; index order fixes the
  // result ordering independently of execution interleaving.
  std::vector<cluster::ClusterScenarioConfig> trials;
  trials.reserve(points.size() * seeds);
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (std::size_t r = 0; r < seeds; ++r) {
      auto cfg = points[p].config;
      cfg.seed = sim::derive(points[p].config.seed, r);
      cfg.trace_path = trial_trace_path(opts.trace_path, p, r);
      if (!opts.metrics_path.empty()) cfg.collect_metrics = true;
      if (metrics_period > 0) cfg.metrics_period = metrics_period;
      trials.push_back(std::move(cfg));
    }
  }

  std::vector<cluster::ClusterScenarioResult> results(trials.size());
  ThreadPool pool(opts.resolved_jobs());
  parallel_for(pool, trials.size(), [&trials, &results](std::size_t i) {
    results[i] = cluster::run_cluster_scenario(trials[i]);
  });

  std::vector<ClusterOutcome> out;
  out.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    ClusterOutcome co;
    co.label = points[p].label;
    co.params = points[p].params;
    for (std::size_t r = 0; r < seeds; ++r) {
      co.seeds.push_back(trials[p * seeds + r].seed);
      co.trials.push_back(std::move(results[p * seeds + r]));
    }
    out.push_back(std::move(co));
  }
  return out;
}

}  // namespace resex::runner
