#pragma once
// Seam between the fabric and resex::fault. The fabric consults an abstract
// FaultHook (if one is installed) for every packet it is about to put on a
// wire; the hook decides the packet's fate. Keeping the interface here — and
// the implementation in src/fault — means the fabric never depends on the
// fault subsystem, and a fabric without a hook behaves byte-identically to
// the perfect-link model (reliability machinery included: it is gated on
// `Fabric::reliable()`, which is true iff a hook is installed or finite
// switch buffers can drop packets).

#include <cstdint>

#include "fabric/types.hpp"

namespace resex::fabric {

class Channel;

/// What happens to a packet at the moment it wins arbitration on a channel.
enum class PacketFate : std::uint8_t {
  kDeliver = 0,  // normal transmission
  kDrop = 1,     // consumes wire time, never reaches the sink
  kCorrupt = 2,  // delivered with `corrupted` set; receiver discards it
};

/// Installed on a Fabric via `set_fault_hook`; consulted once per packet
/// transmission (including retransmissions). Implementations must be
/// deterministic functions of (sim time, channel, packet, own seeded state).
class FaultHook {
 public:
  virtual ~FaultHook() = default;
  [[nodiscard]] virtual PacketFate on_transmit(const Channel& channel,
                                               const detail::Packet& pkt) = 0;
  /// Buffer-squeeze fault: the effective egress buffer capacity (packets) a
  /// switch-port channel must enforce right now, or 0 for no override. A
  /// non-zero override wins over the configured `port_buffer_pkts` — it
  /// models transient switch congestion (shared-buffer pressure from ports
  /// outside the simulated world) as an injectable fault. Consulted at
  /// enqueue time, switch ports only.
  [[nodiscard]] virtual std::uint32_t buffer_limit(const Channel& channel) {
    (void)channel;
    return 0;
  }
};

}  // namespace resex::fabric
