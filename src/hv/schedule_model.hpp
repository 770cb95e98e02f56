#pragma once
// Closed-form model of when a VCPU is on its physical CPU.
//
// The Xen credit scheduler with a cap, as used by the paper ("the Xen
// hypervisor allows the VM to run only for a percentage of its time slice
// (10ms)"), is modelled as a periodic window: within every slice of length S
// the VCPU is runnable during [k*S + begin, k*S + end). For a single VCPU
// pinned to its own PCPU with cap c the window is [k*S, k*S + c*S/100); when
// several VCPUs share a PCPU the scheduler lays their windows out
// back-to-back in equal, cap-limited shares (see CreditScheduler).
//
// All queries are closed-form (no per-tick events), which is what makes the
// simulation fast enough for second-long epochs at nanosecond resolution.

#include <cstdint>

#include "sim/time.hpp"

namespace resex::hv {

using sim::SimDuration;
using sim::SimTime;

/// Default Xen scheduler time slice used throughout the paper.
inline constexpr SimDuration kDefaultSlice = 10 * sim::kMillisecond;

class SliceSchedule {
 public:
  /// A schedule active during [k*slice + begin, k*slice + end) for all k.
  /// Requires begin <= end <= slice and end > begin (a VCPU always gets some
  /// CPU; cap floors are enforced by the scheduler).
  SliceSchedule(SimDuration slice, SimDuration begin, SimDuration end);

  /// Convenience: full-slice fraction [0, fraction*slice).
  static SliceSchedule fraction_of(SimDuration slice, double fraction);

  [[nodiscard]] SimDuration slice() const noexcept { return slice_; }
  [[nodiscard]] SimDuration window_begin() const noexcept { return begin_; }
  [[nodiscard]] SimDuration window_end() const noexcept { return end_; }
  [[nodiscard]] SimDuration window_length() const noexcept {
    return end_ - begin_;
  }
  /// Fraction of the slice this schedule runs (the effective cap / share).
  [[nodiscard]] double duty_cycle() const noexcept {
    return static_cast<double>(window_length()) /
           static_cast<double>(slice_);
  }

  /// Is the VCPU on-CPU at time t?
  [[nodiscard]] bool is_active(SimTime t) const noexcept;

  /// Earliest time >= t at which the VCPU is on-CPU.
  [[nodiscard]] SimTime next_active(SimTime t) const noexcept;

  /// Amount of on-CPU time within [t0, t1). Requires t0 <= t1.
  [[nodiscard]] SimDuration active_time(SimTime t0, SimTime t1) const;

  /// Earliest time t' >= t such that active_time(t, t') == work.
  /// For work == 0 returns next instant (t itself).
  [[nodiscard]] SimTime advance(SimTime t, SimDuration work) const;

 private:
  SimDuration slice_;
  SimDuration begin_;
  SimDuration end_;
};

}  // namespace resex::hv
