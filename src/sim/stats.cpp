#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace resex::sim {

void Welford::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (n_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
}

double Welford::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Welford::stddev() const noexcept { return std::sqrt(variance()); }

void Samples::add(double x) {
  values_.push_back(x);
  summary_.add(x);
  sorted_valid_ = false;
}

double Samples::percentile(double p) const {
  if (values_.empty()) return 0.0;
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("Samples::percentile: p out of [0,100]");
  }
  if (!sorted_valid_) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  if (sorted_.size() == 1) return sorted_.front();
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo_idx = static_cast<std::size_t>(rank);
  const std::size_t hi_idx = std::min(lo_idx + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo_idx);
  return sorted_[lo_idx] * (1.0 - frac) + sorted_[hi_idx] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (bins == 0 || !(hi > lo)) {
    throw std::invalid_argument("Histogram: need hi > lo and bins > 0");
  }
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = static_cast<std::size_t>((x - lo_) / width_);
  if (idx >= counts_.size()) idx = counts_.size() - 1;  // fp edge case
  ++counts_[idx];
}

SlidingWindow::SlidingWindow(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw std::invalid_argument("SlidingWindow: capacity must be > 0");
  }
  values_.reserve(capacity_);
}

void SlidingWindow::add(double x) {
  if (values_.size() < capacity_) {
    values_.push_back(x);
  } else {
    values_[head_] = x;
    head_ = (head_ + 1) % capacity_;
  }
}

double SlidingWindow::mean() const {
  if (values_.empty()) return 0.0;
  double s = 0.0;
  for (double v : values_) s += v;
  return s / static_cast<double>(values_.size());
}

double SlidingWindow::stddev() const {
  const std::size_t n = values_.size();
  if (n < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(n - 1));
}

}  // namespace resex::sim
