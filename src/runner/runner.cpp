#include "runner/runner.hpp"

namespace resex::runner {

std::vector<PointOutcome> run_sweep(std::vector<SweepPoint> points,
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
  ThreadPool pool(opts.resolved_jobs());
  ObsOptions obs;
  obs.trace_base = opts.trace_path;
  obs.collect_metrics = !opts.metrics_path.empty();
  obs.metrics_period = static_cast<sim::SimDuration>(
      opts.metrics_period_ms * static_cast<double>(sim::kMillisecond));
  return Replicator(pool, opts.seeds, std::move(obs)).run(points);
}

std::vector<GenericOutcome> run_generic(std::vector<GenericPoint> points,
                                        const RunnerOptions& opts) {
  if (opts.seed.has_value()) {
    for (auto& p : points) p.seed = *opts.seed;
  }
  ThreadPool pool(opts.resolved_jobs());
  return Replicator(pool, opts.seeds).run_generic(points);
}

}  // namespace resex::runner
