#include "runner/sweep.hpp"

#include <stdexcept>
#include <utility>

#include "sim/report.hpp"

namespace resex::runner {

Sweep& Sweep::axis(std::string name,
                   std::vector<std::pair<std::string, Apply>> values) {
  if (values.empty()) {
    throw std::invalid_argument("Sweep::axis: axis '" + name +
                                "' needs at least one value");
  }
  AxisDef def;
  def.name = std::move(name);
  def.values.reserve(values.size());
  for (auto& [label, apply] : values) {
    def.values.push_back({std::move(label), std::move(apply)});
  }
  axes_.push_back(std::move(def));
  return *this;
}

Sweep& Sweep::axis(
    std::string name, const std::vector<double>& values,
    const std::function<void(core::ScenarioConfig&, double)>& apply) {
  std::vector<std::pair<std::string, Apply>> labelled;
  labelled.reserve(values.size());
  for (const double v : values) {
    labelled.emplace_back(sim::format_double(v),
                          [apply, v](core::ScenarioConfig& c) { apply(c, v); });
  }
  return axis(std::move(name), std::move(labelled));
}

Sweep& Sweep::point(std::string label, const Apply& apply) {
  SweepPoint p;
  p.label = std::move(label);
  p.params.push_back({"point", p.label});
  p.config = base_;
  apply(p.config);
  extras_.push_back(std::move(p));
  return *this;
}

std::vector<SweepPoint> Sweep::points() const {
  std::vector<SweepPoint> out;
  if (!axes_.empty()) {
    std::size_t total = 1;
    for (const auto& a : axes_) total *= a.values.size();
    out.reserve(total + extras_.size());
    std::vector<std::size_t> idx(axes_.size(), 0);
    for (std::size_t n = 0; n < total; ++n) {
      SweepPoint p;
      p.config = base_;
      for (std::size_t a = 0; a < axes_.size(); ++a) {
        const auto& value = axes_[a].values[idx[a]];
        value.apply(p.config);
        p.params.push_back({axes_[a].name, value.label});
        if (axes_.size() == 1) {
          p.label = value.label;
        } else {
          if (!p.label.empty()) p.label += ",";
          p.label += axes_[a].name + "=" + value.label;
        }
      }
      out.push_back(std::move(p));
      // Odometer increment: the last axis varies fastest.
      for (std::size_t a = axes_.size(); a-- > 0;) {
        if (++idx[a] < axes_[a].values.size()) break;
        idx[a] = 0;
      }
    }
  }
  for (const auto& extra : extras_) out.push_back(extra);
  return out;
}

std::vector<GenericPoint> scenario_points(std::vector<SweepPoint> points,
                                          std::vector<Metric> metrics,
                                          const RunnerOptions& opts) {
  std::vector<GenericPoint> out;
  out.reserve(points.size());
  for (auto& sp : points) {
    opts.apply(sp.config);
    GenericPoint p;
    p.label = std::move(sp.label);
    p.params = std::move(sp.params);
    p.seed = sp.config.seed;
    p.run = [config = std::move(sp.config),
             metrics](const TrialContext& ctx) {
      auto cfg = config;
      ctx.apply(cfg);
      auto result = core::run_scenario(cfg);
      std::vector<double> values;
      values.reserve(metrics.size());
      for (const auto& m : metrics) values.push_back(m.extract(result));
      ctx.keep(result);
      return values;
    };
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace resex::runner
