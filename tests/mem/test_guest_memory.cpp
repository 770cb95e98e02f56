#include "mem/guest_memory.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

namespace resex::mem {
namespace {

TEST(GuestMemory, RejectsZeroPages) {
  EXPECT_THROW(GuestMemory(0), std::invalid_argument);
}

TEST(GuestMemory, SizeAccounting) {
  GuestMemory m(4);
  EXPECT_EQ(m.page_count(), 4u);
  EXPECT_EQ(m.size_bytes(), 4u * kPageSize);
}

TEST(GuestMemory, StartsZeroed) {
  GuestMemory m(1);
  EXPECT_EQ(m.read_obj<std::uint64_t>(0), 0u);
  EXPECT_EQ(m.read_obj<std::uint64_t>(kPageSize - 8), 0u);
}

TEST(GuestMemory, UntouchedPagesReadZero) {
  // A full-size guest (2048 pages) that is never written reads zero
  // everywhere, including pages past the first.
  GuestMemory m(2048);
  std::array<std::byte, 64> out{};
  out.fill(std::byte{0xff});
  m.read(1000 * kPageSize + 128, out);
  for (const std::byte b : out) EXPECT_EQ(b, std::byte{0});
  EXPECT_EQ(m.read_obj<std::uint64_t>(m.size_bytes() - 8), 0u);
}

TEST(GuestMemory, LastByteRoundTrip) {
  GuestMemory m(3);
  const GuestAddr last = m.size_bytes() - 1;
  m.write_obj<std::uint8_t>(last, 0x5a);
  EXPECT_EQ(m.read_obj<std::uint8_t>(last), 0x5a);
  std::array<std::byte, 1> out{};
  m.read(last, out);
  EXPECT_EQ(out[0], std::byte{0x5a});
  EXPECT_THROW(m.write_obj<std::uint16_t>(last, 1), BadGuestAccess);
}

TEST(GuestMemory, ForeignMapOfUntouchedRingReadsZeros) {
  GuestMemory m(64);
  m.set_foreign_mappable(true);
  GuestAllocator alloc(m);
  const GuestAddr ring = alloc.allocate_pages(4);
  auto view = m.map_foreign_range(ring, 4 * kPageSize);
  ASSERT_EQ(view.size(), 4 * kPageSize);
  for (const std::byte b : view) ASSERT_EQ(b, std::byte{0});
}

TEST(GuestMemory, DirtyTrackingMarksWrittenPagesOnly) {
  GuestMemory m(16);
  m.write_obj<std::uint32_t>(2 * kPageSize, 1);  // before tracking: clean
  m.set_dirty_tracking(true);
  EXPECT_EQ(m.dirty_page_count(), 0u);
  m.write_obj<std::uint32_t>(3 * kPageSize + 8, 7);
  // A write straddling a page boundary dirties both pages.
  m.write_obj<std::uint64_t>(6 * kPageSize - 4, 9);
  m.zero(15 * kPageSize, 1);
  (void)m.read_obj<std::uint32_t>(9 * kPageSize);  // reads never dirty
  EXPECT_EQ(m.dirty_page_count(), 4u);
  EXPECT_EQ(m.collect_dirty_pages(), (std::vector<std::size_t>{3, 5, 6, 15}));
  EXPECT_EQ(m.dirty_page_count(), 0u);
  m.write_obj<std::uint32_t>(0, 1);
  EXPECT_EQ(m.collect_dirty_pages(), (std::vector<std::size_t>{0}));
  m.set_dirty_tracking(false);
  m.write_obj<std::uint32_t>(kPageSize, 1);
  EXPECT_EQ(m.dirty_page_count(), 0u);
  EXPECT_TRUE(m.collect_dirty_pages().empty());
}

TEST(GuestMemory, WriteReadRoundTrip) {
  GuestMemory m(1);
  std::array<std::byte, 4> in{std::byte{1}, std::byte{2}, std::byte{3},
                              std::byte{4}};
  m.write(100, in);
  std::array<std::byte, 4> out{};
  m.read(100, out);
  EXPECT_EQ(in, out);
}

TEST(GuestMemory, ObjectRoundTrip) {
  GuestMemory m(1);
  struct Packed {
    std::uint32_t a;
    std::uint16_t b;
  };
  m.write_obj(8, Packed{7, 9});
  const auto p = m.read_obj<Packed>(8);
  EXPECT_EQ(p.a, 7u);
  EXPECT_EQ(p.b, 9u);
}

TEST(GuestMemory, EmptyAccessesAreNoOps) {
  GuestMemory m(1);
  m.set_dirty_tracking(true);
  m.write(kPageSize, std::span<const std::byte>{});
  m.read(0, std::span<std::byte>{});
  EXPECT_EQ(m.dirty_page_count(), 0u);
  EXPECT_THROW(m.read(kPageSize + 1, std::span<std::byte>{}), BadGuestAccess);
}

TEST(GuestMemory, OutOfBoundsThrows) {
  GuestMemory m(1);
  std::array<std::byte, 8> buf{};
  EXPECT_THROW(m.write(kPageSize - 4, buf), BadGuestAccess);
  EXPECT_THROW(m.read(kPageSize, buf), BadGuestAccess);
  EXPECT_THROW((void)m.read_obj<std::uint64_t>(kPageSize - 4), BadGuestAccess);
}

TEST(GuestMemory, OverflowingAddressDoesNotWrap) {
  GuestMemory m(1);
  std::array<std::byte, 1> buf{};
  EXPECT_THROW(m.read(~GuestAddr{0}, buf), BadGuestAccess);
}

TEST(GuestMemory, ZeroRange) {
  GuestMemory m(1);
  m.write_obj<std::uint32_t>(16, 0xdeadbeef);
  m.zero(16, 4);
  EXPECT_EQ(m.read_obj<std::uint32_t>(16), 0u);
  EXPECT_THROW(m.zero(kPageSize, 1), BadGuestAccess);
}

TEST(GuestMemory, ForeignMapDeniedByDefault) {
  GuestMemory m(1);
  EXPECT_FALSE(m.foreign_mappable());
  EXPECT_THROW((void)m.map_foreign_range(0, kPageSize), ForeignMapDenied);
}

TEST(GuestMemory, ForeignMapSeesGuestWrites) {
  GuestMemory m(2);
  m.set_foreign_mappable(true);
  m.write_obj<std::uint64_t>(kPageSize + 8, 0xabcdef);
  auto view = m.map_foreign_range(kPageSize, kPageSize);
  std::uint64_t v = 0;
  std::memcpy(&v, view.data() + 8, sizeof(v));
  EXPECT_EQ(v, 0xabcdefu);
}

TEST(GuestMemory, ForeignMapIsLive) {
  // The mapping is a view: later guest writes are visible through it,
  // which is what lets IBMon watch the HCA update CQ rings.
  GuestMemory m(1);
  m.set_foreign_mappable(true);
  auto view = m.map_foreign_range(0, kPageSize);
  m.write_obj<std::uint32_t>(0, 42);
  std::uint32_t v = 0;
  std::memcpy(&v, view.data(), sizeof(v));
  EXPECT_EQ(v, 42u);
}

TEST(GuestMemory, ForeignMapRequiresPageAlignment) {
  GuestMemory m(1);
  m.set_foreign_mappable(true);
  EXPECT_THROW((void)m.map_foreign_range(8, 16), BadGuestAccess);
}

TEST(GuestMemory, ForeignMapBoundsChecked) {
  GuestMemory m(1);
  m.set_foreign_mappable(true);
  EXPECT_THROW((void)m.map_foreign_range(0, 2 * kPageSize), BadGuestAccess);
}

TEST(GuestAllocator, AllocatesSequentiallyAligned) {
  GuestMemory m(4);
  GuestAllocator alloc(m);
  const GuestAddr a = alloc.allocate(10, 64);
  const GuestAddr b = alloc.allocate(10, 64);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GT(b, a);
}

TEST(GuestAllocator, PageAllocationIsPageAligned) {
  GuestMemory m(8);
  GuestAllocator alloc(m);
  (void)alloc.allocate(10);
  const GuestAddr p = alloc.allocate_pages(2);
  EXPECT_EQ(p % kPageSize, 0u);
}

TEST(GuestAllocator, ThrowsWhenExhausted) {
  GuestMemory m(1);
  GuestAllocator alloc(m);
  (void)alloc.allocate(kPageSize - 10);
  EXPECT_THROW((void)alloc.allocate(100), std::bad_alloc);
}

TEST(GuestAllocator, RejectsBadAlignment) {
  GuestMemory m(1);
  GuestAllocator alloc(m);
  EXPECT_THROW((void)alloc.allocate(8, 3), std::invalid_argument);
  EXPECT_THROW((void)alloc.allocate(8, 0), std::invalid_argument);
}

}  // namespace
}  // namespace resex::mem
