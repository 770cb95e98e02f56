#pragma once
// Knob bundle for resex::congestion: finite switch buffers + ECN marking
// (enforced inside the fabric, see FabricConfig) and the DCQCN-style rate
// controller's own parameters. Scenario configs embed a CongestionConfig so
// the runner's --buf-pkts/--ecn-kmin/--ecn-kmax flags plumb through every
// experiment uniformly; everything defaults off, which reproduces the
// historical lossless fabric byte-for-byte.

#include <cstdint>

#include "fabric/types.hpp"
#include "sim/time.hpp"

namespace resex::congestion {

/// DCQCN-flavoured rate-control parameters (Zhu et al., SIGCOMM'15 notation
/// in comments). Defaults are scaled to the simulated 1 GiB/s host ports.
/// The knobs fig_incast sweeps live here; the controller's timers and
/// increase steps are constants in dcqcn.cpp.
struct DcqcnConfig {
  /// Destination-side CNP pacing: at most one CNP per flow per interval,
  /// regardless of how many marked packets arrive (DCQCN's 50 us timer).
  sim::SimDuration cnp_interval = 50 * sim::kMicrosecond;
  /// EWMA gain g for the congestion estimate alpha.
  double alpha_g = 1.0 / 16.0;
  /// Rate floor: a flow is never cut below this, bytes/second.
  double min_rate = 1.0 * 1024 * 1024;
};

/// Everything a scenario needs to turn congestion on: fabric-side buffering
/// and marking plus the optional end-to-end controller.
struct CongestionConfig {
  /// Switch egress buffer capacity, packets (0 = infinite, lossless).
  std::uint32_t buffer_pkts = 0;
  /// ECN thresholds, packets (kmax 0 disables marking; else 1<=kmin<=kmax).
  std::uint32_t ecn_kmin = 0;
  std::uint32_t ecn_kmax = 0;
  /// Run the DCQCN-style RateController on top of ECN marks.
  bool rate_control = false;
  DcqcnConfig dcqcn{};
  /// Per-port egress capacity in *bytes* (0 = use buffer_pkts). Switches the
  /// port to byte-based occupancy accounting.
  std::uint64_t buffer_bytes = 0;
  /// Shared per-switch buffer pool, bytes: each port admits up to
  /// `pool_alpha * free pool` (dynamic threshold), replacing fixed caps.
  std::uint64_t pool_bytes = 0;
  double pool_alpha = 1.0;
  /// PFC-style lossless mode: ports pause their upstreams at XOFF instead of
  /// tail-dropping (requires finite buffers).
  bool pfc = false;

  /// Copy the fabric-enforced knobs into a fabric config.
  void apply(fabric::FabricConfig& fabric) const noexcept {
    fabric.port_buffer_pkts = buffer_pkts;
    fabric.ecn_kmin_pkts = ecn_kmin;
    fabric.ecn_kmax_pkts = ecn_kmax;
    fabric.port_buffer_bytes = buffer_bytes;
    fabric.switch_pool_bytes = pool_bytes;
    fabric.pool_alpha = pool_alpha;
    fabric.pfc_enabled = pfc;
  }
};

}  // namespace resex::congestion
