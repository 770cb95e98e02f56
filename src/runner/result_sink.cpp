#include "runner/result_sink.hpp"

#include <cmath>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "sim/stats.hpp"

namespace resex::runner {

using sim::format_double;
using sim::json_escape;

namespace {

/// Two-sided 95% Student-t critical value for `df` degrees of freedom
/// (tabulated to df=30, 1.96 asymptote beyond).
double student_t95(std::size_t df) {
  // Two-sided 95% critical values; df >= 31 is within 3% of the normal 1.96.
  static constexpr double kTable[] = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return 0.0;
  if (df <= 30) return kTable[df - 1];
  return 1.96;
}

}  // namespace

Aggregate aggregate(const std::vector<double>& values) {
  Aggregate a;
  a.n = values.size();
  if (values.empty()) return a;
  sim::Samples s;
  s.reserve(values.size());
  for (const double v : values) s.add(v);
  a.mean = s.mean();
  a.stddev = s.stddev();
  a.p50 = s.percentile(50.0);
  a.p99 = s.percentile(99.0);
  if (a.n >= 2) {
    a.ci95 = student_t95(a.n - 1) * a.stddev /
             std::sqrt(static_cast<double>(a.n));
  }
  return a;
}

ResultSink::ResultSink(std::vector<std::string> metric_names)
    : names_(std::move(metric_names)) {
  if (names_.empty()) {
    throw std::invalid_argument("ResultSink: need at least one metric");
  }
}

std::vector<std::vector<Aggregate>> ResultSink::aggregates(
    const std::vector<PointOutcome>& outcomes) const {
  std::vector<std::vector<Aggregate>> out;
  out.reserve(outcomes.size());
  for (const auto& po : outcomes) {
    std::vector<Aggregate> per_metric;
    per_metric.reserve(names_.size());
    for (std::size_t m = 0; m < names_.size(); ++m) {
      std::vector<double> samples;
      samples.reserve(po.trials.size());
      for (const auto& trial : po.trials) samples.push_back(trial.values.at(m));
      per_metric.push_back(aggregate(samples));
    }
    out.push_back(std::move(per_metric));
  }
  return out;
}

sim::Table ResultSink::table(const std::vector<PointOutcome>& outcomes) const {
  bool with_ci = false;
  for (const auto& po : outcomes) with_ci = with_ci || po.trials.size() > 1;

  std::vector<std::string> columns{"point"};
  for (const auto& name : names_) {
    columns.push_back(name);
    if (with_ci) columns.push_back(name + "_ci95");
  }
  sim::Table table(std::move(columns));

  const auto aggs = aggregates(outcomes);
  for (std::size_t p = 0; p < outcomes.size(); ++p) {
    std::vector<sim::Cell> row{outcomes[p].label};
    for (const auto& a : aggs[p]) {
      row.emplace_back(a.mean);
      if (with_ci) row.emplace_back(a.ci95);
    }
    table.add_row(std::move(row));
  }
  return table;
}

void ResultSink::write_json(std::ostream& os,
                            const std::vector<PointOutcome>& outcomes) const {
  const auto aggs = aggregates(outcomes);
  os << "{\n  \"schema\": \"resex.runner/v1\",\n  \"metrics\": [";
  for (std::size_t m = 0; m < names_.size(); ++m) {
    os << (m == 0 ? "" : ", ") << "\"" << json_escape(names_[m]) << "\"";
  }
  os << "],\n  \"points\": [\n";
  for (std::size_t p = 0; p < outcomes.size(); ++p) {
    const auto& po = outcomes[p];
    os << "    {\n      \"label\": \"" << json_escape(po.label) << "\",\n"
       << "      \"params\": {";
    for (std::size_t i = 0; i < po.params.size(); ++i) {
      const auto& param = po.params[i];
      os << (i == 0 ? "" : ", ") << "\"" << json_escape(param.name)
         << "\": \"" << json_escape(param.value) << "\"";
    }
    os << "},\n      \"trials\": [\n";
    for (std::size_t r = 0; r < po.trials.size(); ++r) {
      const auto& trial = po.trials[r];
      os << "        {\"replicate\": " << r << ", \"seed\": " << trial.seed
         << ", \"metrics\": {";
      for (std::size_t m = 0; m < names_.size(); ++m) {
        os << (m == 0 ? "" : ", ") << "\"" << json_escape(names_[m])
           << "\": " << format_double(trial.values[m]);
      }
      os << "}}" << (r + 1 < po.trials.size() ? "," : "") << "\n";
    }
    os << "      ],\n      \"aggregates\": {";
    for (std::size_t m = 0; m < names_.size(); ++m) {
      const auto& a = aggs[p][m];
      os << (m == 0 ? "" : ", ") << "\"" << json_escape(names_[m])
         << "\": {\"n\": " << a.n << ", \"mean\": " << format_double(a.mean)
         << ", \"stddev\": " << format_double(a.stddev)
         << ", \"p50\": " << format_double(a.p50)
         << ", \"p99\": " << format_double(a.p99)
         << ", \"ci95\": " << format_double(a.ci95) << "}";
    }
    os << "}\n    }" << (p + 1 < outcomes.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

namespace {
template <typename Fn>
void save_to(const std::string& what, const std::string& path, Fn&& write) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error(what + ": cannot open " + path);
  write(out);
  if (!out) throw std::runtime_error(what + ": write failed for " + path);
}
}  // namespace

void ResultSink::save_json(const std::string& path,
                           const std::vector<PointOutcome>& outcomes) const {
  save_to("ResultSink::save_json", path,
          [&](std::ostream& os) { write_json(os, outcomes); });
}

void ResultSink::save_csv(const std::string& path,
                          const std::vector<PointOutcome>& outcomes) const {
  save_to("ResultSink::save_csv", path,
          [&](std::ostream& os) { table(outcomes).write_csv(os); });
}

void write_metrics_json(std::ostream& os,
                        const std::vector<PointOutcome>& outcomes) {
  os << "{\"schema\":\"resex.metrics/v1\",\"trials\":[";
  bool first = true;
  for (const auto& po : outcomes) {
    for (const auto& trial : po.trials) {
      os << (first ? "\n" : ",\n");
      first = false;
      os << "{\"label\":\"" << json_escape(po.label)
         << "\",\"point\":" << trial.point
         << ",\"replicate\":" << trial.replicate << ",\"seed\":" << trial.seed
         << ",\"snapshot\":" << obs::to_json(trial.metrics);
      if (!trial.metrics_series.empty()) {
        // Periodic snapshots (--metrics-period): the same document shape as
        // "snapshot", ordered by sim time.
        os << ",\"series\":[";
        for (std::size_t s = 0; s < trial.metrics_series.size(); ++s) {
          os << (s == 0 ? "" : ",") << obs::to_json(trial.metrics_series[s]);
        }
        os << "]";
      }
      os << "}";
    }
  }
  os << "\n]}\n";
}

void save_metrics_json(const std::string& path,
                       const std::vector<PointOutcome>& outcomes) {
  save_to("save_metrics_json", path,
          [&](std::ostream& os) { write_metrics_json(os, outcomes); });
}

}  // namespace resex::runner
