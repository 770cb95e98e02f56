#include "mem/guest_memory.hpp"

#include <sys/mman.h>

#include <limits>
#include <new>

namespace resex::mem {

GuestMemory::GuestMemory(std::size_t pages) : size_(pages * kPageSize) {
  if (pages == 0) {
    throw std::invalid_argument("GuestMemory: need at least one page");
  }
  if (pages > std::numeric_limits<std::size_t>::max() / kPageSize) {
    throw std::length_error("GuestMemory: address space too large");
  }
  // mmap directly rather than calloc: once glibc has freed one large block
  // it raises its mmap threshold, and later callocs of this size come from
  // the heap and may be zero-filled page by page.
  void* p = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  bytes_ = static_cast<std::byte*>(p);
}

GuestMemory::~GuestMemory() { ::munmap(bytes_, size_); }

}  // namespace resex::mem
