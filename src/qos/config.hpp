#pragma once
// Knob bundle for resex::qos: service levels and virtual lanes.
//
// Scenario configs embed a QosConfig so the runner's --qos/--sl-vl-map/
// --vl-weights/--vl-hi-limit flags plumb through every experiment uniformly.
// Everything defaults off, which runs every port as a single lane; with
// --qos alone the fabric runs two classes — SL 0 (latency: scheduler/control
// and BenchEx RPC traffic) on VL 0 in the high-priority arbitration table,
// SL 1 (bulk: collectives, live migration) on VL 1 in the low-priority
// table — with per-VL buffers, ECN and PFC.

#include <array>
#include <cstdint>
#include <string_view>

#include "fabric/types.hpp"

namespace resex::qos {

/// Service level carried by scheduler/control and request/response (BenchEx
/// RPC) traffic: the latency class, mapped to the high-priority table by the
/// default SL->VL map.
inline constexpr std::uint8_t kLatencySl = 0;
/// Service level of bulk transfers: collective schedules and live-migration
/// streams default here, mapped to the low-priority table.
inline constexpr std::uint8_t kBulkSl = 1;

struct QosConfig {
  /// Master switch; everything below is ignored (and every port runs a
  /// single lane) while false.
  bool enabled = false;
  /// Virtual lanes per port, 1..4.
  std::uint8_t num_vls = 2;
  /// SL->VL map (16 SLs). Only meaningful when map_set; otherwise the
  /// default map assigns SL s to VL min(s, num_vls - 1).
  std::array<std::uint8_t, fabric::FabricConfig::kMaxSls> sl2vl{};
  bool map_set = false;
  /// Per-VL arbitration weight (packets per WRR visit within a table).
  std::array<std::uint32_t, fabric::FabricConfig::kMaxVls> vl_weights{1, 1, 1,
                                                                      1};
  bool weights_set = false;
  /// Bit v: VL v arbitrates in the high-priority table.
  std::uint8_t high_mask = 0x1;
  /// Consecutive high-table grants (with low-table traffic waiting) before
  /// one low-table grant is forced; 0 = strict priority.
  std::uint32_t hi_limit = 16;
  bool hi_limit_set = false;

  /// Parse "SL:VL[,SL:VL...]" (e.g. "0:0,1:1,2:1"). Raises num_vls to cover
  /// the highest VL referenced. Throws std::invalid_argument on bad input.
  void set_sl_vl_map(std::string_view spec);
  /// Parse "W0,W1[,W2[,W3]]" per-VL weights (e.g. "4,1"). Raises num_vls to
  /// the weight count. Throws std::invalid_argument on bad input.
  void set_vl_weights(std::string_view spec);

  /// Copy the fabric-enforced knobs into a fabric config (no-op while
  /// disabled, so default scenarios keep the exact historical FabricConfig).
  void apply(fabric::FabricConfig& fabric) const noexcept;
};

}  // namespace resex::qos
