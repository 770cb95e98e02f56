#include "mem/tpt.hpp"

namespace resex::mem {

RegisteredRegion Tpt::register_region(std::uint32_t pd, GuestAddr addr,
                                      std::size_t length, Access access) {
  if (length == 0) {
    throw std::invalid_argument("Tpt::register_region: empty region");
  }
  std::uint32_t index;
  if (!free_list_.empty()) {
    index = free_list_.back();
    free_list_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  Entry& e = entries_[index];
  e.addr = addr;
  e.length = length;
  e.access = access;
  e.pd = pd;
  // generation was already bumped at deregistration; for fresh entries it
  // starts at 0.
  e.valid = true;
  ++live_;
  const MemKey key = make_key(index, e.generation);
  return RegisteredRegion{key, key, addr, length};
}

bool Tpt::deregister_region(MemKey key) {
  const std::uint32_t index = index_of(key);
  if (index >= entries_.size()) return false;
  Entry& e = entries_[index];
  if (!e.valid || e.generation != tag_of(key)) return false;
  e.valid = false;
  ++e.generation;  // stale keys now fail validation
  free_list_.push_back(index);
  --live_;
  return true;
}

TptStatus Tpt::validate(MemKey key, std::uint32_t pd, GuestAddr addr,
                        std::size_t len, Access required,
                        bool check_pd) const {
  const std::uint32_t index = index_of(key);
  if (index >= entries_.size()) return TptStatus::kBadKey;
  const Entry& e = entries_[index];
  if (!e.valid || e.generation != tag_of(key)) return TptStatus::kBadKey;
  if (check_pd && e.pd != pd) return TptStatus::kWrongDomain;
  if (addr < e.addr || len > e.length || addr - e.addr > e.length - len) {
    return TptStatus::kOutOfBounds;
  }
  if (!has_access(e.access, required)) return TptStatus::kAccessDenied;
  return TptStatus::kOk;
}

}  // namespace resex::mem
