#pragma once
// The benchmark's three workloads and its per-layer probes.
//
// A trial is one whole run of one workload in a fresh process: set-up, the
// measured run, result collection and teardown. It reports host-time phases
// and, separately, the simulated results (the fingerprint run.py pins) and
// the metrics-registry counts the traced run turns into per-layer numbers.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Values = std::map<std::string, double>;

struct TrialResult {
  double setup_s = 0.0;       // host seconds before the measured run
  double run_s = 0.0;         // host seconds of the measured run
  double trial_wall_s = 0.0;  // host seconds for the whole trial
  double sim_s = 0.0;         // simulated seconds the measured run covers
  /// Simulated results; deterministic for a seed, so run.py compares them
  /// exactly against the pinned ones and across trials.
  Values fingerprint;
  /// Per-layer counts from the simulator's metrics registry, plus the
  /// reporting requests served ("benchex.requests") on the scenario
  /// workloads.
  Values counts;
  /// Failed health checks (qp errors, stalled closed loops, too few
  /// completed operations). Any entry fails the trial.
  std::vector<std::string> problems;
};

/// Run one trial of `workload`; throws std::invalid_argument for an unknown
/// name. A non-empty `trace_path` turns the simulator's sim-time tracer on
/// and writes its events there.
[[nodiscard]] TrialResult run_trial(const std::string& workload,
                                    std::uint64_t seed,
                                    const std::string& trace_path);

/// Host ns per Simulation::step() over an incast_pfc-shaped run whose
/// senders stop at `end_ms` of simulated time: {"p50", "p99"}.
[[nodiscard]] Values incast_step_profile(std::uint64_t seed, double end_ms);

/// Every per-layer timing probe, host ns per operation (median of several
/// batches), each on inputs shaped like the workload it serves.
[[nodiscard]] Values run_probes(std::uint64_t seed);

}  // namespace perfbench
