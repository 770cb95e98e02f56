#include "mem/tpt.hpp"

#include <gtest/gtest.h>

namespace resex::mem {
namespace {

constexpr std::uint32_t kPd = 1;

TEST(Tpt, RegisterReturnsMatchingKeys) {
  Tpt tpt;
  const auto mr = tpt.register_region(kPd, 0x1000, 256, Access::kLocalWrite);
  EXPECT_EQ(mr.lkey, mr.rkey);
  EXPECT_EQ(mr.addr, 0x1000u);
  EXPECT_EQ(mr.length, 256u);
  EXPECT_EQ(tpt.live_regions(), 1u);
}

TEST(Tpt, RejectsEmptyRegion) {
  Tpt tpt;
  EXPECT_THROW((void)tpt.register_region(kPd, 0, 0, Access::kNone),
               std::invalid_argument);
}

TEST(Tpt, ValidateOkWithinBounds) {
  Tpt tpt;
  const auto mr = tpt.register_region(kPd, 0x1000, 256, Access::kLocalWrite);
  EXPECT_EQ(tpt.validate(mr.lkey, kPd, 0x1000, 256, Access::kLocalWrite),
            TptStatus::kOk);
  EXPECT_EQ(tpt.validate(mr.lkey, kPd, 0x1080, 64, Access::kLocalWrite),
            TptStatus::kOk);
}

TEST(Tpt, ValidateOutOfBounds) {
  Tpt tpt;
  const auto mr = tpt.register_region(kPd, 0x1000, 256, Access::kLocalWrite);
  EXPECT_EQ(tpt.validate(mr.lkey, kPd, 0x0FFF, 16, Access::kLocalWrite),
            TptStatus::kOutOfBounds);
  EXPECT_EQ(tpt.validate(mr.lkey, kPd, 0x10F0, 32, Access::kLocalWrite),
            TptStatus::kOutOfBounds);
  EXPECT_EQ(tpt.validate(mr.lkey, kPd, 0x1000, 257, Access::kLocalWrite),
            TptStatus::kOutOfBounds);
}

TEST(Tpt, ValidateLenOverflowDoesNotWrap) {
  Tpt tpt;
  const auto mr = tpt.register_region(kPd, 0x1000, 256, Access::kLocalWrite);
  EXPECT_EQ(tpt.validate(mr.lkey, kPd, 0x1010, ~std::size_t{0},
                         Access::kLocalWrite),
            TptStatus::kOutOfBounds);
}

TEST(Tpt, AccessRightsEnforced) {
  Tpt tpt;
  const auto mr = tpt.register_region(kPd, 0x0, 64, Access::kRemoteRead);
  EXPECT_EQ(tpt.validate(mr.rkey, kPd, 0x0, 64, Access::kRemoteWrite),
            TptStatus::kAccessDenied);
  EXPECT_EQ(tpt.validate(mr.rkey, kPd, 0x0, 64, Access::kRemoteRead),
            TptStatus::kOk);
}

TEST(Tpt, CombinedAccessRights) {
  Tpt tpt;
  const auto mr = tpt.register_region(
      kPd, 0x0, 64, Access::kLocalWrite | Access::kRemoteWrite);
  EXPECT_EQ(tpt.validate(mr.rkey, kPd, 0x0, 8, Access::kRemoteWrite),
            TptStatus::kOk);
  EXPECT_EQ(tpt.validate(mr.rkey, kPd, 0x0, 8, Access::kLocalWrite),
            TptStatus::kOk);
  EXPECT_EQ(tpt.validate(mr.rkey, kPd, 0x0, 8, Access::kRemoteRead),
            TptStatus::kAccessDenied);
}

TEST(Tpt, WrongDomainRejected) {
  Tpt tpt;
  const auto mr = tpt.register_region(kPd, 0x0, 64, Access::kLocalWrite);
  EXPECT_EQ(tpt.validate(mr.lkey, kPd + 1, 0x0, 8, Access::kLocalWrite),
            TptStatus::kWrongDomain);
  // Remote accesses skip the PD check (rkey semantics).
  EXPECT_EQ(tpt.validate(mr.lkey, kPd + 1, 0x0, 8, Access::kLocalWrite,
                         /*check_pd=*/false),
            TptStatus::kOk);
}

TEST(Tpt, UnknownKeyRejected) {
  Tpt tpt;
  EXPECT_EQ(tpt.validate(0xFFFF00, kPd, 0, 1, Access::kNone),
            TptStatus::kBadKey);
}

TEST(Tpt, DeregisterInvalidatesKey) {
  Tpt tpt;
  const auto mr = tpt.register_region(kPd, 0x0, 64, Access::kLocalWrite);
  EXPECT_TRUE(tpt.deregister_region(mr.lkey));
  EXPECT_EQ(tpt.validate(mr.lkey, kPd, 0x0, 8, Access::kLocalWrite),
            TptStatus::kBadKey);
  EXPECT_EQ(tpt.live_regions(), 0u);
  EXPECT_FALSE(tpt.deregister_region(mr.lkey));  // double-free rejected
}

TEST(Tpt, StaleKeyAfterSlotReuseRejected) {
  Tpt tpt;
  const auto mr1 = tpt.register_region(kPd, 0x0, 64, Access::kLocalWrite);
  ASSERT_TRUE(tpt.deregister_region(mr1.lkey));
  const auto mr2 = tpt.register_region(kPd, 0x100, 64, Access::kLocalWrite);
  // Slot reused with a new generation tag: old key must not alias new region.
  EXPECT_NE(mr1.lkey, mr2.lkey);
  EXPECT_EQ(tpt.validate(mr1.lkey, kPd, 0x0, 8, Access::kLocalWrite),
            TptStatus::kBadKey);
  EXPECT_EQ(tpt.validate(mr2.lkey, kPd, 0x100, 8, Access::kLocalWrite),
            TptStatus::kOk);
}

TEST(Tpt, ManyRegionsIndependent) {
  Tpt tpt;
  std::vector<RegisteredRegion> mrs;
  for (std::uint32_t i = 0; i < 100; ++i) {
    mrs.push_back(tpt.register_region(kPd, i * 0x1000, 0x800,
                                      Access::kLocalWrite));
  }
  EXPECT_EQ(tpt.live_regions(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(tpt.validate(mrs[i].lkey, kPd, i * 0x1000, 0x800,
                           Access::kLocalWrite),
              TptStatus::kOk);
  }
}

}  // namespace
}  // namespace resex::mem
