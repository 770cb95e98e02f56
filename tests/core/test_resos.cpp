#include "core/resos.hpp"

#include <gtest/gtest.h>

namespace resex::core {
namespace {

TEST(ResosLedger, ConfigValidation) {
  ResosConfig bad;
  bad.epoch = 999;
  bad.interval = 1000;
  EXPECT_THROW(ResosLedger{bad}, std::invalid_argument);
}

TEST(ResosLedger, PaperAllocationNumbers) {
  // Section VI-A: 100,000 CPU Resos per epoch; 1,048,576 I/O Resos shared.
  ResosLedger ledger;
  ledger.add_vm(1);
  ledger.add_vm(2);
  EXPECT_DOUBLE_EQ(ledger.allocation(1), 100000.0 + 1048576.0 / 2.0);
  EXPECT_DOUBLE_EQ(ledger.allocation(2), 100000.0 + 1048576.0 / 2.0);
  EXPECT_EQ(ledger.config().intervals_per_epoch(), 1000u);
}

TEST(ResosLedger, WeightedShares) {
  ResosLedger ledger;
  ledger.add_vm(1, 3.0);
  ledger.add_vm(2, 1.0);
  EXPECT_DOUBLE_EQ(ledger.allocation(1), 100000.0 + 1048576.0 * 0.75);
  EXPECT_DOUBLE_EQ(ledger.allocation(2), 100000.0 + 1048576.0 * 0.25);
}

TEST(ResosLedger, AddVmValidation) {
  ResosLedger ledger;
  ledger.add_vm(1);
  EXPECT_THROW(ledger.add_vm(1), std::logic_error);
  EXPECT_THROW(ledger.add_vm(2, 0.0), std::invalid_argument);
  EXPECT_THROW(ledger.add_vm(2, -1.0), std::invalid_argument);
}

TEST(ResosLedger, DeductLowersBalance) {
  ResosLedger ledger;
  ledger.add_vm(1);
  const double start = ledger.balance(1);
  const double after = ledger.deduct(1, 1000.0);
  EXPECT_DOUBLE_EQ(after, start - 1000.0);
  EXPECT_DOUBLE_EQ(ledger.balance(1), after);
}

TEST(ResosLedger, BalanceClampsAtZero) {
  ResosLedger ledger;
  ledger.add_vm(1);
  EXPECT_DOUBLE_EQ(ledger.deduct(1, 1e12), 0.0);
  EXPECT_DOUBLE_EQ(ledger.fraction_remaining(1), 0.0);
}

TEST(ResosLedger, DeductValidation) {
  ResosLedger ledger;
  ledger.add_vm(1);
  EXPECT_THROW((void)ledger.deduct(2, 1.0), std::out_of_range);
  EXPECT_THROW((void)ledger.deduct(1, -1.0), std::invalid_argument);
}

TEST(ResosLedger, ChargeRateMultipliesDeductions) {
  ResosLedger ledger;
  ledger.add_vm(1);
  const double start = ledger.balance(1);
  ledger.set_charge_rate(1, 3.0);
  EXPECT_DOUBLE_EQ(ledger.charge_rate(1), 3.0);
  (void)ledger.deduct(1, 100.0);
  EXPECT_DOUBLE_EQ(ledger.balance(1), start - 300.0);
}

TEST(ResosLedger, ChargeRateFlooredAtBase) {
  ResosLedger ledger;
  ledger.add_vm(1);
  ledger.set_charge_rate(1, 0.1);
  EXPECT_DOUBLE_EQ(ledger.charge_rate(1), 1.0);
  EXPECT_THROW(ledger.set_charge_rate(9, 2.0), std::out_of_range);
}

TEST(ResosLedger, ReplenishRestoresAllocationAndDiscardsLeftover) {
  ResosLedger ledger;
  ledger.add_vm(1);
  (void)ledger.deduct(1, 50000.0);
  ledger.replenish();
  EXPECT_DOUBLE_EQ(ledger.balance(1), ledger.allocation(1));
  EXPECT_DOUBLE_EQ(ledger.fraction_remaining(1), 1.0);
}

TEST(ResosLedger, ReplenishKeepsChargeRates) {
  ResosLedger ledger;
  ledger.add_vm(1);
  ledger.set_charge_rate(1, 2.5);
  ledger.replenish();
  EXPECT_DOUBLE_EQ(ledger.charge_rate(1), 2.5);
}

TEST(ResosLedger, LateVmReducesOthersShareAtReplenish) {
  ResosLedger ledger;
  ledger.add_vm(1);
  EXPECT_DOUBLE_EQ(ledger.allocation(1), 100000.0 + 1048576.0);
  ledger.add_vm(2);
  // Allocations shrink immediately; vm1's balance updates at replenish.
  EXPECT_DOUBLE_EQ(ledger.allocation(1), 100000.0 + 1048576.0 / 2.0);
  ledger.replenish();
  EXPECT_DOUBLE_EQ(ledger.balance(1), ledger.allocation(1));
}

TEST(ResosLedger, TracksOnlyAddedVms) {
  ResosLedger ledger;
  ledger.add_vm(5);
  ledger.add_vm(2);
  ledger.add_vm(9);
  EXPECT_TRUE(ledger.tracks(2));
  EXPECT_TRUE(ledger.tracks(5));
  EXPECT_TRUE(ledger.tracks(9));
  EXPECT_FALSE(ledger.tracks(4));
}

}  // namespace
}  // namespace resex::core
