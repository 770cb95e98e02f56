#include "sim/observe.hpp"

#include <exception>
#include <iostream>
#include <utility>

#include "obs/trace.hpp"
#include "sim/task.hpp"

namespace resex::sim {

namespace {

Task periodic_loop(Simulation& sim, SimDuration period,
                   std::vector<obs::MetricsSnapshot>* out) {
  for (;;) {
    co_await sim.delay(period);
    if (out != nullptr) out->push_back(sim.metrics().snapshot(sim.now()));
    sim.metrics().emit_to_tracer(sim.tracer());
  }
}

}  // namespace

Observer::Observer(Simulation& sim, ObsSettings settings,
                   obs::MetricsSnapshot& metrics,
                   std::vector<obs::MetricsSnapshot>& series, RunCost& cost)
    : sim_(&sim),
      settings_(std::move(settings)),
      metrics_(&metrics),
      series_(&series),
      cost_(&cost) {
  if (!settings_.trace_path.empty()) sim_->tracer().enable();
}

void Observer::start() {
  if (settings_.metrics_period == 0) return;
  const bool series = settings_.collect_metrics;
  if (!series && !sim_->tracer().enabled()) return;
  sim_->spawn(periodic_loop(*sim_, settings_.metrics_period,
                            series ? series_ : nullptr));
}

void Observer::finish() {
  *cost_ += RunCost{sim_->events_processed(), sim_->now()};
  if (settings_.collect_metrics) {
    *metrics_ = sim_->metrics().snapshot(sim_->now());
  }
  if (settings_.trace_path.empty()) return;
  try {
    obs::save_trace(settings_.trace_path, sim_->tracer());
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
  }
}

}  // namespace resex::sim
