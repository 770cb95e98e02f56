#pragma once
// Translation and Protection Table (TPT).
//
// The HCA-side registry of memory regions. Registration pins a guest buffer
// and yields local/remote keys (lkey/rkey); every DMA the HCA performs is
// validated against the TPT entry for bounds and access rights — exactly the
// checks a real InfiniBand HCA performs. Keys carry a generation tag so stale
// keys from deregistered regions are rejected.

#include <cstdint>
#include <vector>

#include "mem/guest_memory.hpp"

namespace resex::mem {

/// Access rights for a registered memory region (bitmask).
enum class Access : std::uint32_t {
  kNone = 0,
  kLocalWrite = 1u << 0,
  kRemoteRead = 1u << 1,
  kRemoteWrite = 1u << 2,
};

constexpr Access operator|(Access a, Access b) {
  return static_cast<Access>(static_cast<std::uint32_t>(a) |
                             static_cast<std::uint32_t>(b));
}
constexpr bool has_access(Access granted, Access required) {
  return (static_cast<std::uint32_t>(granted) &
          static_cast<std::uint32_t>(required)) ==
         static_cast<std::uint32_t>(required);
}

/// Memory key: low 8 bits are a generation tag, the rest index the TPT.
using MemKey = std::uint32_t;

/// Result of registering a region.
struct RegisteredRegion {
  MemKey lkey = 0;
  MemKey rkey = 0;
  GuestAddr addr = 0;
  std::size_t length = 0;
};

/// Why a TPT validation failed.
enum class TptStatus {
  kOk,
  kBadKey,        // unknown index or stale generation
  kOutOfBounds,   // access outside the registered range
  kAccessDenied,  // missing access right
  kWrongDomain,   // key belongs to a different protection domain
};

class Tpt {
 public:
  /// Register [addr, addr+length) owned by protection domain `pd` with the
  /// given rights. Returns the keys used for subsequent validation.
  RegisteredRegion register_region(std::uint32_t pd, GuestAddr addr,
                                   std::size_t length, Access access);

  /// Invalidate a region. Subsequent validations with its keys fail with
  /// kBadKey. Returns false if the key was not valid.
  bool deregister_region(MemKey key);

  /// Validate an access of [addr, addr+len) under `key` for `required`
  /// rights, on behalf of protection domain `pd` (pd is ignored for remote
  /// access checks when `check_pd` is false — remote peers are identified by
  /// rkey alone, as in IB).
  [[nodiscard]] TptStatus validate(MemKey key, std::uint32_t pd,
                                   GuestAddr addr, std::size_t len,
                                   Access required, bool check_pd = true) const;

  [[nodiscard]] std::size_t live_regions() const noexcept { return live_; }

 private:
  struct Entry {
    GuestAddr addr = 0;
    std::size_t length = 0;
    Access access = Access::kNone;
    std::uint32_t pd = 0;
    std::uint8_t generation = 0;
    bool valid = false;
  };

  static constexpr std::uint32_t index_of(MemKey key) { return key >> 8; }
  static constexpr std::uint8_t tag_of(MemKey key) {
    return static_cast<std::uint8_t>(key & 0xFF);
  }
  static constexpr MemKey make_key(std::uint32_t index, std::uint8_t tag) {
    return (index << 8) | tag;
  }

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> free_list_;
  std::size_t live_ = 0;
};

}  // namespace resex::mem
