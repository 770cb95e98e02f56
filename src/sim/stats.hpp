#pragma once
// Statistics accumulators used throughout the benchmarks and ResEx itself.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace resex::sim {

/// Streaming mean/variance/min/max via Welford's algorithm. O(1) memory.
class Welford {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Full-sample collector: keeps every value; supports exact percentiles.
/// Use for per-experiment latency series (bounded sample counts).
class Samples {
 public:
  void add(double x);
  void reserve(std::size_t n) { values_.reserve(n); }

  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  [[nodiscard]] double mean() const noexcept { return summary_.mean(); }
  [[nodiscard]] double stddev() const noexcept { return summary_.stddev(); }
  [[nodiscard]] double min() const noexcept { return summary_.min(); }
  [[nodiscard]] double max() const noexcept { return summary_.max(); }

  /// Exact percentile (nearest-rank with linear interpolation), p in [0,100].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }
  [[nodiscard]] const Welford& summary() const noexcept { return summary_; }

 private:
  std::vector<double> values_;
  mutable std::vector<double> sorted_;  // lazily maintained
  mutable bool sorted_valid_ = false;
  Welford summary_;
};

/// Fixed-range histogram with uniform bins plus underflow/overflow counters.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] std::size_t bin_count() const noexcept {
    return counts_.size();
  }
  [[nodiscard]] std::uint64_t bin(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] double bin_lo(std::size_t i) const {
    return lo_ + static_cast<double>(i) * width_;
  }
  [[nodiscard]] double bin_center(std::size_t i) const {
    return bin_lo(i) + width_ / 2.0;
  }
  [[nodiscard]] std::uint64_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

/// Sliding-window latency statistics (used by the in-VM reporting agent and
/// the interference detector): mean/stddev over the most recent `capacity`
/// observations.
class SlidingWindow {
 public:
  explicit SlidingWindow(std::size_t capacity);

  void add(double x);

  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::vector<double> values_;
};

}  // namespace resex::sim
