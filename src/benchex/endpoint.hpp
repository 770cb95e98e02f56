#pragma once
// One BenchEx endpoint: a guest's verbs endpoint whose registered buffer is
// its message ring (the region the peer RDMA-writes into), plus the peer's
// ring coordinates (exchanged out-of-band at connection setup, as real RDMA
// applications do).

#include <cstdint>

#include "fabric/endpoint.hpp"

namespace resex::benchex {

struct Endpoint : fabric::Endpoint {
  mem::GuestAddr peer_ring_base = 0;
  std::uint32_t peer_rkey = 0;

  [[nodiscard]] mem::GuestAddr slot_addr(std::uint32_t slot,
                                         std::uint32_t buffer_bytes) const {
    return buf + std::uint64_t{slot} * buffer_bytes;
  }
  /// RDMA write-with-immediate of ring slot `slot` into the peer's same
  /// slot; the immediate carries the slot index.
  [[nodiscard]] fabric::SendWr slot_write(std::uint32_t slot,
                                          std::uint32_t buffer_bytes) const {
    fabric::SendWr wr;
    wr.opcode = fabric::Opcode::kRdmaWriteWithImm;
    wr.local_addr = slot_addr(slot, buffer_bytes);
    wr.lkey = mr.lkey;
    wr.length = buffer_bytes;
    wr.remote_addr = peer_ring_base + std::uint64_t{slot} * buffer_bytes;
    wr.rkey = peer_rkey;
    wr.imm_data = slot;
    return wr;
  }
};

}  // namespace resex::benchex
