#pragma once
// ResultSink: structured export of replicated results — aligned console
// tables (via sim::Table), CSV, and a deterministic JSON document (schema
// "resex.runner/v1") suitable for the BENCH_*.json perf trajectory. No
// wall-clock times, hostnames, or unordered containers appear in the
// output, so a parallel run's files are byte-identical to a serial run's.
// Aggregate summarizes one metric across a point's replicates: mean, sample
// stddev, exact p50/p99, and a 95% Student-t confidence half-width.

#include <iosfwd>
#include <string>
#include <vector>

#include "runner/trial.hpp"
#include "sim/report.hpp"

namespace resex::runner {

struct Aggregate {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;  // sample stddev (n-1); 0 when n < 2
  double p50 = 0.0;
  double p99 = 0.0;
  double ci95 = 0.0;  // confidence half-width; 0 when n < 2
};

[[nodiscard]] Aggregate aggregate(const std::vector<double>& values);

class ResultSink {
 public:
  /// One name per trial value, in value order.
  explicit ResultSink(std::vector<std::string> metric_names);

  [[nodiscard]] const std::vector<std::string>& metric_names() const noexcept {
    return names_;
  }

  /// Per-point, per-metric aggregates (ordered as the outcomes are).
  [[nodiscard]] std::vector<std::vector<Aggregate>> aggregates(
      const std::vector<PointOutcome>& outcomes) const;

  /// Aligned table: one row per point, mean per metric; when any point has
  /// 2+ replicates, each metric also gets a "<name>_ci95" half-width column.
  [[nodiscard]] sim::Table table(
      const std::vector<PointOutcome>& outcomes) const;

  void write_json(std::ostream& os,
                  const std::vector<PointOutcome>& outcomes) const;

  /// File variants; throw std::runtime_error on I/O failure.
  void save_json(const std::string& path,
                 const std::vector<PointOutcome>& outcomes) const;
  void save_csv(const std::string& path,
                const std::vector<PointOutcome>& outcomes) const;

 private:
  std::vector<std::string> names_;
};

/// Per-trial obs metrics snapshots as one deterministic JSON document
/// (schema "resex.metrics/v1"): entries ordered by (point, replicate), each
/// carrying the point label, seed, and the snapshot taken at the end of the
/// trial. Trials that collected no metrics contribute empty snapshots;
/// trials run with a metrics period also carry a "series" array of periodic
/// snapshots ordered by sim time.
void write_metrics_json(std::ostream& os,
                        const std::vector<PointOutcome>& outcomes);

/// File variant; throws std::runtime_error on I/O failure.
void save_metrics_json(const std::string& path,
                       const std::vector<PointOutcome>& outcomes);

}  // namespace resex::runner
