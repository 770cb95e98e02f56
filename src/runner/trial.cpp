#include "runner/trial.hpp"

#include <algorithm>
#include <utility>

#include "runner/thread_pool.hpp"
#include "sim/rng.hpp"

namespace resex::runner {

std::vector<PointOutcome> run_trials(std::vector<GenericPoint> points,
                                     const RunnerOptions& opts) {
  if (opts.seed.has_value()) {
    for (auto& p : points) p.seed = *opts.seed;
  }
  const std::size_t seeds = opts.seeds == 0 ? 1 : opts.seeds;
  sim::ObsSettings obs;
  obs.collect_metrics = !opts.metrics_path.empty();
  obs.metrics_period = static_cast<sim::SimDuration>(
      opts.metrics_period_ms * static_cast<double>(sim::kMillisecond));

  // Materialize every trial up front: index = point * seeds + replicate
  // fixes the ordering independently of execution interleaving.
  std::vector<PointOutcome> out(points.size());
  std::vector<TrialContext> trials;
  trials.reserve(points.size() * seeds);
  for (std::size_t p = 0; p < points.size(); ++p) {
    out[p].label = points[p].label;
    out[p].params = points[p].params;
    out[p].trials.resize(seeds);
    for (std::size_t r = 0; r < seeds; ++r) {
      TrialOutcome& t = out[p].trials[r];
      t.point = p;
      t.replicate = r;
      t.seed = sim::derive(points[p].seed, r);
      obs.trace_path = trial_trace_path(opts.trace_path, p, r);
      trials.push_back(
          {p, r, t.seed, obs, &t.metrics, &t.metrics_series, &t.cost});
    }
  }

  ThreadPool pool(trial_workers(opts, trials.size()));
  parallel_for(pool, trials.size(), [&](std::size_t i) {
    const TrialContext& ctx = trials[i];
    out[ctx.point].trials[ctx.replicate].values =
        points[ctx.point].run(ctx);
  });
  return out;
}

std::size_t trial_workers(const RunnerOptions& opts, std::size_t trials) {
  return std::max<std::size_t>(1, std::min(opts.resolved_jobs(), trials));
}

std::string tagged_path(const std::string& path, const std::string& tag) {
  if (path.empty()) return path;
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + tag;  // no extension to preserve
  }
  return path.substr(0, dot) + tag + path.substr(dot);
}

std::string trial_trace_path(const std::string& base, std::size_t point,
                             std::size_t replicate) {
  if (point == 0 && replicate == 0) return base;
  return tagged_path(base, ".p" + std::to_string(point) + "r" +
                               std::to_string(replicate));
}

}  // namespace resex::runner
