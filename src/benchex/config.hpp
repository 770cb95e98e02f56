#pragma once
// BenchEx configuration: one server/client pair of the trading benchmark.

#include <cstdint>
#include <optional>

#include "finance/workload.hpp"
#include "sim/time.hpp"
#include "trace/workload.hpp"

namespace resex::benchex {

/// How the client generates load.
enum class LoadMode : std::uint8_t {
  kOpenLoop,    // requests at trace arrival times (latency-sensitive feed)
  kClosedLoop,  // next request as soon as the response lands (interferer)
};

struct BenchExConfig {
  /// Application buffer size: the size of every request and response message
  /// (the paper identifies VMs by this value, e.g. "the 64KB VM").
  std::uint32_t buffer_bytes = 64 * 1024;

  LoadMode mode = LoadMode::kOpenLoop;
  /// Open-loop arrival process (ignored for closed loop).
  trace::ArrivalConfig arrivals{.kind = trace::ArrivalKind::kFixedRate,
                                .rate_per_sec = 2000.0};
  /// Closed-loop think time between response and next request.
  sim::SimDuration think_time = 0;

  /// Request content. When `use_mix` is set, kind/instruments are drawn from
  /// the exchange mix; otherwise every request is identical (the controlled
  /// configurations of Section VII).
  bool use_mix = false;
  finance::RequestKind kind = finance::RequestKind::kQuote;
  std::uint32_t instruments = 80;

  /// Ring slots at each side (bounds outstanding requests; open-loop clients
  /// block when all slots are in flight).
  std::uint32_t ring_slots = 16;
  /// Maximum requests in flight. 0 means the mode default: ring_slots for
  /// open loop, 1 for closed loop. The paper's interference generator uses
  /// closed loop with depth 2 to keep the link saturated.
  std::uint32_t queue_depth = 0;
  std::uint32_t cq_entries = 4096;

  /// Samples before this time are discarded (warm-up).
  sim::SimTime metrics_start = 0;

  std::uint64_t seed = 1;

  /// Guest pages needed for rings + headroom.
  [[nodiscard]] std::size_t guest_pages() const {
    const std::size_t ring = std::size_t{buffer_bytes} * ring_slots;
    const std::size_t cq = std::size_t{cq_entries} * 32 * 2;
    return (2 * ring + cq) / 4096 + 64;
  }
};

}  // namespace resex::benchex
