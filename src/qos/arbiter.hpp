#pragma once
// Deterministic InfiniBand-style virtual-lane arbiter.
//
// Egress scheduling across VLs follows the IBA two-table model: every VL is
// a member of either the high-priority or the low-priority weighted table.
// While any high-table VL has an eligible packet it wins arbitration, except
// that after `hi_limit` consecutive high-table grants with low-table traffic
// waiting, one low-table grant is forced — the HiLimit escape hatch that
// makes the bulk class starvation-free under a saturating latency class.
// Within a table, VLs share bandwidth by weighted round-robin with the same
// grant semantics as the per-QP arbiter in fabric::Channel: the cursor VL
// keeps the grant for up to `weight` consecutive packets.
//
// Header-only and stdlib-only on purpose: fabric::Channel embeds one, and
// the qos library itself depends on fabric — the arbiter must not close
// that cycle. No RNG, no wall clock: byte-identical at any --jobs.

#include <array>
#include <cstdint>

namespace resex::qos {

/// Virtual lanes supported by the fabric model (IBA allows up to 15 data
/// VLs; 4 covers every experiment here and keeps per-port state small).
inline constexpr std::uint8_t kMaxVls = 4;

struct VlArbiterConfig {
  std::uint8_t num_vls = 1;
  /// Bit v set: VL v arbitrates in the high-priority table.
  std::uint8_t high_mask = 0;
  /// Consecutive high-table grants allowed while low-table traffic waits
  /// before one low-table grant is forced. 0 = strict priority (the high
  /// table can starve the low one — allowed, but off by default).
  std::uint32_t hi_limit = 0;
  /// WRR weight per VL within its table (0 is treated as 1).
  std::array<std::uint32_t, kMaxVls> weight{1, 1, 1, 1};
};

class VlArbiter {
 public:
  VlArbiter() = default;
  explicit VlArbiter(const VlArbiterConfig& cfg) noexcept : cfg_(cfg) {
    if (cfg_.num_vls == 0) cfg_.num_vls = 1;
    if (cfg_.num_vls > kMaxVls) cfg_.num_vls = kMaxVls;
  }

  [[nodiscard]] const VlArbiterConfig& config() const noexcept { return cfg_; }

  /// Choose the VL that receives the next packet grant among `eligible`
  /// (bit v = VL v has a transmittable packet). Returns kMaxVls iff the
  /// mask (clipped to num_vls) is empty. Work-conserving by construction:
  /// a non-empty mask always yields one of its members.
  [[nodiscard]] std::uint8_t pick(std::uint8_t eligible) noexcept {
    eligible &= static_cast<std::uint8_t>((1u << cfg_.num_vls) - 1u);
    if (eligible == 0) return kMaxVls;
    const auto hi = static_cast<std::uint8_t>(eligible & cfg_.high_mask);
    const auto lo = static_cast<std::uint8_t>(eligible & ~cfg_.high_mask);
    // No low-table traffic waiting: high-table grants cause no starvation,
    // so the HiLimit counter only runs while both tables are backlogged.
    if (lo == 0) hi_run_ = 0;
    if (hi != 0 &&
        (lo == 0 || cfg_.hi_limit == 0 || hi_run_ < cfg_.hi_limit)) {
      ++hi_run_;
      return wrr(hi_table_, hi);
    }
    hi_run_ = 0;
    return wrr(lo_table_, lo);
  }

 private:
  struct TableState {
    std::uint8_t cursor = 0;
    std::uint32_t extra_grants = 0;  // further grants the cursor VL may keep
  };

  [[nodiscard]] std::uint8_t wrr(TableState& t, std::uint8_t mask) noexcept {
    if (t.extra_grants > 0 && (mask & (1u << t.cursor)) != 0) {
      --t.extra_grants;
      return t.cursor;
    }
    for (std::uint8_t probe = 1; probe <= cfg_.num_vls; ++probe) {
      const auto vl =
          static_cast<std::uint8_t>((t.cursor + probe) % cfg_.num_vls);
      if ((mask & (1u << vl)) == 0) continue;
      t.cursor = vl;
      const std::uint32_t w = cfg_.weight[vl] > 0 ? cfg_.weight[vl] : 1;
      t.extra_grants = w - 1;
      return vl;
    }
    // Unreachable: mask is non-empty within num_vls. Keep the compiler and
    // the caller honest without UB.
    return kMaxVls;
  }

  VlArbiterConfig cfg_{};
  TableState hi_table_{};
  TableState lo_table_{};
  std::uint32_t hi_run_ = 0;  // consecutive high-table grants
};

}  // namespace resex::qos
