#include "hv/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace resex::hv {

CreditScheduler::CreditScheduler(sim::Simulation& sim,
                                 std::uint32_t pcpu_count,
                                 SchedulerConfig config)
    : sim_(sim), config_(config), pcpus_(pcpu_count) {
  if (pcpu_count == 0) {
    throw std::invalid_argument("CreditScheduler: need at least one PCPU");
  }
  if (config_.min_cap_pct <= 0.0 || config_.min_cap_pct > 100.0) {
    throw std::invalid_argument("CreditScheduler: bad min_cap_pct");
  }
  if (config_.slice < static_cast<SimDuration>(10 * sim::kMicrosecond)) {
    throw std::invalid_argument(
        "CreditScheduler: the slice must be at least 10 us");
  }
}

void CreditScheduler::attach(Vcpu& vcpu, std::uint32_t pcpu, double cap_pct) {
  if (pcpu >= pcpus_.size()) {
    throw std::out_of_range("CreditScheduler::attach: no such PCPU");
  }
  if (states_.contains(&vcpu)) {
    throw std::logic_error("CreditScheduler::attach: VCPU already attached");
  }
  VcpuState st;
  st.vcpu = &vcpu;
  st.pcpu = pcpu;
  st.cap_pct = std::clamp(cap_pct, config_.min_cap_pct, 100.0);
  states_.emplace(&vcpu, st);
  pcpus_[pcpu].push_back(&vcpu);
  relayout(pcpu);
}

void CreditScheduler::detach(Vcpu& vcpu) {
  const auto it = states_.find(&vcpu);
  if (it == states_.end()) return;
  auto& pinned = pcpus_[it->second.pcpu];
  pinned.erase(std::remove(pinned.begin(), pinned.end(), &vcpu),
               pinned.end());
  const std::uint32_t pcpu = it->second.pcpu;
  states_.erase(it);
  if (!pinned.empty()) relayout(pcpu);
}

CreditScheduler::VcpuState& CreditScheduler::state_of(const Vcpu& vcpu) {
  const auto it = states_.find(&vcpu);
  if (it == states_.end()) {
    throw std::logic_error("CreditScheduler: VCPU not attached");
  }
  return it->second;
}

const CreditScheduler::VcpuState& CreditScheduler::state_of(
    const Vcpu& vcpu) const {
  const auto it = states_.find(&vcpu);
  if (it == states_.end()) {
    throw std::logic_error("CreditScheduler: VCPU not attached");
  }
  return it->second;
}

void CreditScheduler::set_cap(Vcpu& vcpu, double cap_pct) {
  VcpuState& st = state_of(vcpu);
  const double clamped = std::clamp(cap_pct, config_.min_cap_pct, 100.0);
  if (clamped == st.cap_pct) return;
  st.cap_pct = clamped;
  sim_.metrics().counter("hv.cap_changes").add();
  RESEX_TRACE_INSTANT(sim_.tracer(), "sched.cap", "hv",
                      {"pcpu", static_cast<double>(st.pcpu)},
                      {"cap_pct", clamped});
  relayout(st.pcpu);
}

double CreditScheduler::cap(const Vcpu& vcpu) const {
  return state_of(vcpu).cap_pct;
}

std::uint32_t CreditScheduler::pcpu_of(const Vcpu& vcpu) const {
  return state_of(vcpu).pcpu;
}

std::size_t CreditScheduler::load_of(std::uint32_t pcpu) const {
  if (pcpu >= pcpus_.size()) {
    throw std::out_of_range("CreditScheduler::load_of: no such PCPU");
  }
  return pcpus_[pcpu].size();
}

void CreditScheduler::relayout(std::uint32_t pcpu) {
  const auto& pinned = pcpus_[pcpu];
  if (pinned.empty()) return;

  // Water-filling: distribute the PCPU equally among pinned VCPUs, never
  // exceeding a VCPU's cap; surplus from capped VCPUs is re-offered to the
  // rest (the credit scheduler's work-conserving share).
  const std::size_t n = pinned.size();
  std::vector<double> alloc(n, 0.0);
  std::vector<bool> capped(n, false);
  double pool = 1.0;
  for (int round = 0; round < 16 && pool > 1e-9; ++round) {
    const auto uncapped = static_cast<double>(
        std::count(capped.begin(), capped.end(), false));
    if (uncapped == 0.0) break;
    const double offer = pool / uncapped;
    double consumed = 0.0;
    bool newly_capped = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (capped[i]) continue;
      const VcpuState& st = state_of(*pinned[i]);
      const double limit = st.cap_pct / 100.0;
      double next = alloc[i] + offer;
      if (next >= limit) {
        next = limit;
        capped[i] = true;
        newly_capped = true;
      }
      consumed += next - alloc[i];
      alloc[i] = next;
    }
    pool -= consumed;
    if (!newly_capped) break;  // nothing limited the distribution this round
  }

  // Convert shares to window lengths with largest-remainder rounding, which
  // conserves the allocated time exactly. (The per-window clamp-and-clip
  // this replaces could overlap windows and sum past the slice once many
  // VCPUs or tiny caps pushed the cursor over the end.)
  const SimDuration slice = config_.slice;
  const auto slice_d = static_cast<double>(slice);
  std::vector<SimDuration> len(n, 0);
  std::vector<double> frac(n, 0.0);
  double ideal_total = 0.0;
  SimDuration floor_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double ideal = std::clamp(alloc[i], 0.0, 1.0) * slice_d;
    ideal_total += ideal;
    const double whole = std::floor(ideal);
    len[i] = static_cast<SimDuration>(whole);
    frac[i] = ideal - whole;
    floor_total += len[i];
  }
  const auto target = std::min<SimDuration>(
      slice, static_cast<SimDuration>(std::llround(ideal_total)));
  // Hand the ns lost to flooring back, largest fractional part first
  // (ties break toward the earlier pin slot).
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&frac](std::size_t a, std::size_t b) {
                     return frac[a] > frac[b];
                   });
  for (SimDuration extra = target > floor_total ? target - floor_total : 0;
       extra > 0;) {
    for (std::size_t j = 0; j < n && extra > 0; ++j, --extra) {
      ++len[order[j]];
    }
  }

  // Progress floor: every VCPU gets at least a microsecond, shrunk to an
  // equal split when the PCPU is too crowded for that, so n * floor never
  // exceeds the slice. The raise is paid for by shaving the largest windows,
  // keeping the total in-slice instead of pushing windows past the end.
  const auto floor_len = std::max<SimDuration>(
      1, std::min<SimDuration>(sim::kMicrosecond, slice / n));
  SimDuration deficit = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (len[i] < floor_len) {
      deficit += floor_len - len[i];
      len[i] = floor_len;
    }
  }
  while (deficit > 0) {
    const std::size_t big = static_cast<std::size_t>(
        std::max_element(len.begin(), len.end()) - len.begin());
    const SimDuration take = std::min(deficit, len[big] - floor_len);
    if (take == 0) break;  // everything at the floor already; total <= slice
    len[big] -= take;
    deficit -= take;
  }

  // Lay the windows back-to-back in pin order: disjoint by construction.
  SimDuration cursor = 0;
  std::vector<SimDuration> begin(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    begin[i] = cursor;
    cursor += len[i];
  }
  if (cursor > slice) {
    // Conservation invariant: explicit check (NDEBUG builds drop assert()).
    throw std::logic_error("CreditScheduler::relayout: layout exceeds slice");
  }
  for (std::size_t i = 0; i < n; ++i) {
    pinned[i]->update_schedule(
        SliceSchedule(slice, begin[i], begin[i] + len[i]));
  }
  RESEX_TRACE_INSTANT(sim_.tracer(), "sched.relayout", "hv",
                      {"pcpu", static_cast<double>(pcpu)},
                      {"vcpus", static_cast<double>(n)});
}

}  // namespace resex::hv
