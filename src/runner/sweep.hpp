#pragma once
// Sweep: a cartesian grid builder over core::ScenarioConfig. A bench
// declares axes ("cap_pct" over {100, 90, ...}, "policy" over {FreeMarket,
// IOShares}) and optional explicit extra points (the uncontended base case);
// points() materializes the grid in a fixed order so every run — serial or
// parallel — enumerates identical trials. scenario_points turns the grid
// into trials that each run core::run_scenario.

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "runner/options.hpp"
#include "runner/trial.hpp"

namespace resex::runner {

struct SweepPoint {
  std::string label;          // human label for the table's first column
  std::vector<Param> params;  // machine-readable assignments for JSON/CSV
  core::ScenarioConfig config;
};

class Sweep {
 public:
  using Apply = std::function<void(core::ScenarioConfig&)>;

  explicit Sweep(core::ScenarioConfig base) : base_(std::move(base)) {}

  /// Add a cartesian axis from explicit (value label, mutation) pairs.
  Sweep& axis(std::string name,
              std::vector<std::pair<std::string, Apply>> values);

  /// Numeric-axis convenience: labels rendered with sim::format_double.
  Sweep& axis(std::string name, const std::vector<double>& values,
              const std::function<void(core::ScenarioConfig&, double)>& apply);

  /// Append an explicit point after the grid (e.g. the base case).
  Sweep& point(std::string label, const Apply& apply);

  /// Materialize the grid — row-major, later axes varying fastest — followed
  /// by the explicit points in declaration order.
  [[nodiscard]] std::vector<SweepPoint> points() const;

 private:
  struct AxisValue {
    std::string label;
    Apply apply;
  };
  struct AxisDef {
    std::string name;
    std::vector<AxisValue> values;
  };

  core::ScenarioConfig base_;
  std::vector<AxisDef> axes_;
  std::vector<SweepPoint> extras_;
};

/// Named scalar extracted from a finished scenario for tables and export.
struct Metric {
  std::string name;
  std::function<double(const core::ScenarioResult&)> extract;
};

/// Sweep points as trials: each runs core::run_scenario on its point's
/// config with the CLI's fabric flags (RunnerOptions::apply) and the
/// trial's seed and observability (TrialContext::apply) overlaid, and
/// yields one value per metric.
[[nodiscard]] std::vector<GenericPoint> scenario_points(
    std::vector<SweepPoint> points, std::vector<Metric> metrics,
    const RunnerOptions& opts);

}  // namespace resex::runner
