#include "core/detector.hpp"

#include <stdexcept>

namespace resex::core {

void InterferenceDetector::add_vm(hv::DomainId id,
                                  std::optional<double> baseline_mean_us) {
  if (vms_.contains(id)) {
    throw std::logic_error("InterferenceDetector::add_vm: duplicate VM");
  }
  VmState st;
  st.baseline_mean_us = baseline_mean_us;
  vms_.emplace(id, st);
}

double InterferenceDetector::observe(
    hv::DomainId id, const benchex::LatencyAgent::Snapshot& s) {
  const auto it = vms_.find(id);
  if (it == vms_.end()) {
    throw std::out_of_range("InterferenceDetector::observe: unknown VM");
  }
  VmState& st = it->second;
  if (s.reports == st.last_reports) return 0.0;  // no fresh data
  st.last_reports = s.reports;

  if (!st.baseline_mean_us.has_value()) {
    st.learn_sum += s.mean_us;
    if (++st.learn_count >= config_.learn_intervals) {
      st.baseline_mean_us = st.learn_sum / st.learn_count;
    }
    return 0.0;  // still learning
  }

  const double base = *st.baseline_mean_us;
  if (base <= 0.0) return 0.0;
  const double pct = (s.mean_us - base) / base * 100.0;
  if (pct <= config_.threshold_pct) return 0.0;
  return std::min(pct, SlaConfig::max_intf_pct);
}

double InterferenceDetector::baseline(hv::DomainId id) const {
  const auto it = vms_.find(id);
  if (it == vms_.end() || !it->second.baseline_mean_us) {
    throw std::out_of_range("InterferenceDetector::baseline: not available");
  }
  return *it->second.baseline_mean_us;
}

bool InterferenceDetector::has_baseline(hv::DomainId id) const {
  const auto it = vms_.find(id);
  return it != vms_.end() && it->second.baseline_mean_us.has_value();
}

}  // namespace resex::core
