#pragma once
// Metrics registry (the accounting half of resex::obs): named counters,
// gauges and histograms owned by a Simulation, snapshot-able at any point
// (per epoch, per trial, ...).
//
// Two registration styles:
//   - push: `registry.counter("fabric.rnr_retries")` returns a stable
//     reference the instrumented code updates directly (a single integer
//     add on the hot path);
//   - pull: `registry.gauge_fn("fabric.A/up.bytes_sent", fn)` registers a
//     callback evaluated only at snapshot time — zero hot-path cost for
//     values a component already tracks.
//
// Snapshots list samples sorted by name, so exported documents are
// byte-deterministic regardless of registration interleaving.

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace resex::obs {

class Tracer;

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Log2-bucketed histogram of non-negative integer observations (typically
/// nanoseconds): bucket i counts values with bit_width i, i.e. [2^(i-1), 2^i).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width(u64) in [0, 64]

  void observe(std::uint64_t v) noexcept {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return min_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_.at(i);
  }

  static std::size_t bucket_of(std::uint64_t v) noexcept {
    return static_cast<std::size_t>(std::bit_width(v));
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(MetricKind k) noexcept;

/// One metric's value at snapshot time. Counters/gauges fill `value`;
/// histograms fill count/sum/min/max plus the non-empty buckets.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  /// (bucket index, count) pairs, ascending, empty buckets omitted.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
};

struct MetricsSnapshot {
  sim::SimTime at = 0;  // simulated time the snapshot was taken
  std::vector<MetricSample> samples;  // sorted by name
};

/// Deterministic JSON rendering of a snapshot (single object).
[[nodiscard]] std::string to_json(const MetricsSnapshot& snapshot);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. References stay valid for the registry's lifetime.
  /// Throws std::logic_error if `name` is already registered with a
  /// different kind.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Pull-style gauge: `fn` is evaluated at snapshot time. Re-registering
  /// the same name replaces the callback (components created per scenario
  /// register in their constructors).
  void gauge_fn(std::string_view name, std::function<double()> fn);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Run `fn` before every snapshot or tracer emission: a component whose
  /// counters lag behind simulated time (a fabric's open packet trains)
  /// brings them up to date there. `fn` must outlive those reads.
  void on_read(std::function<void()> fn) { refresh_.push_back(std::move(fn)); }

  /// Snapshot every metric, samples sorted by name. `at` stamps the
  /// simulated time (callers pass sim.now()).
  [[nodiscard]] MetricsSnapshot snapshot(sim::SimTime at = 0) const;

  /// Stream the current value of every metric into `tracer` as 'C' (counter
  /// track) events at the current simulated time, sorted by name: counters
  /// and gauges emit one sample, histograms their running count and mean.
  /// No-op when the tracer is disabled. The event names point at the
  /// registry's own entry names (stable for its lifetime), honouring the
  /// tracer's no-copy contract — the registry must outlive trace export,
  /// which holds for both living on the same Simulation.
  void emit_to_tracer(Tracer& tracer) const;

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    Counter counter;
    Gauge gauge;
    std::function<double()> pull;  // non-null => pull-style gauge
    std::unique_ptr<Histogram> hist;
  };

  Entry& entry_for(std::string_view name, MetricKind kind);

  std::vector<std::unique_ptr<Entry>> entries_;
  std::vector<std::function<void()>> refresh_;
  std::unordered_map<std::string_view, Entry*> index_;  // keys point into entries_
};

}  // namespace resex::obs
