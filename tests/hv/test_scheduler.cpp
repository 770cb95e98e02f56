#include "hv/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "sim/simulation.hpp"

namespace resex::hv {
namespace {

using namespace resex::sim::literals;
using sim::SimTime;
using sim::Simulation;

TEST(CreditScheduler, RejectsBadConstruction) {
  Simulation sim;
  EXPECT_THROW(CreditScheduler(sim, 0), std::invalid_argument);
  SchedulerConfig bad;
  bad.min_cap_pct = 0.0;
  EXPECT_THROW(CreditScheduler(sim, 1, bad), std::invalid_argument);
}

TEST(CreditScheduler, SoloVcpuGetsFullPcpu) {
  Simulation sim;
  CreditScheduler sched(sim, 2);
  Vcpu v(sim, 1, sched.initial_schedule());
  sched.attach(v, 0);
  EXPECT_EQ(v.schedule().window_begin(), 0u);
  EXPECT_EQ(v.schedule().window_end(), 10_ms);
  EXPECT_DOUBLE_EQ(sched.cap(v), 100.0);
}

TEST(CreditScheduler, CapShrinksWindow) {
  Simulation sim;
  CreditScheduler sched(sim, 1);
  Vcpu v(sim, 1, sched.initial_schedule());
  sched.attach(v, 0, 25.0);
  EXPECT_EQ(v.schedule().window_begin(), 0u);
  EXPECT_EQ(v.schedule().window_end(), 2500_us);
}

TEST(CreditScheduler, SetCapRelaysToVcpu) {
  Simulation sim;
  CreditScheduler sched(sim, 1);
  Vcpu v(sim, 1, sched.initial_schedule());
  sched.attach(v, 0);
  sched.set_cap(v, 40.0);
  EXPECT_DOUBLE_EQ(sched.cap(v), 40.0);
  EXPECT_EQ(v.schedule().window_length(), 4_ms);
}

TEST(CreditScheduler, CapClampedToBounds) {
  Simulation sim;
  CreditScheduler sched(sim, 1);
  Vcpu v(sim, 1, sched.initial_schedule());
  sched.attach(v, 0);
  sched.set_cap(v, 0.01);
  EXPECT_DOUBLE_EQ(sched.cap(v), 1.0);  // default min_cap
  sched.set_cap(v, 250.0);
  EXPECT_DOUBLE_EQ(sched.cap(v), 100.0);
}

TEST(CreditScheduler, EqualWeightsSplitPcpuEvenly) {
  Simulation sim;
  CreditScheduler sched(sim, 1);
  Vcpu a(sim, 1, sched.initial_schedule());
  Vcpu b(sim, 2, sched.initial_schedule());
  sched.attach(a, 0);
  sched.attach(b, 0);
  EXPECT_EQ(a.schedule().window_begin(), 0u);
  EXPECT_EQ(a.schedule().window_end(), 5_ms);
  EXPECT_EQ(b.schedule().window_begin(), 5_ms);
  EXPECT_EQ(b.schedule().window_end(), 10_ms);
}

TEST(CreditScheduler, CapSurplusRedistributedToUncapped) {
  Simulation sim;
  CreditScheduler sched(sim, 1);
  Vcpu a(sim, 1, sched.initial_schedule());
  Vcpu b(sim, 2, sched.initial_schedule());
  sched.attach(a, 0, 20.0);  // capped at 20%
  sched.attach(b, 0);        // uncapped: should absorb the other 80%
  EXPECT_NEAR(a.schedule().duty_cycle(), 0.20, 1e-6);
  EXPECT_NEAR(b.schedule().duty_cycle(), 0.80, 1e-6);
}

TEST(CreditScheduler, AllCappedLeavesIdleGap) {
  Simulation sim;
  CreditScheduler sched(sim, 1);
  Vcpu a(sim, 1, sched.initial_schedule());
  Vcpu b(sim, 2, sched.initial_schedule());
  sched.attach(a, 0, 30.0);
  sched.attach(b, 0, 30.0);
  EXPECT_NEAR(a.schedule().duty_cycle(), 0.30, 1e-6);
  EXPECT_NEAR(b.schedule().duty_cycle(), 0.30, 1e-6);
  EXPECT_LE(b.schedule().window_end(), 10_ms);
}

TEST(CreditScheduler, WindowsDoNotOverlap) {
  Simulation sim;
  CreditScheduler sched(sim, 1);
  std::vector<std::unique_ptr<Vcpu>> vcpus;
  for (std::uint32_t i = 0; i < 5; ++i) {
    vcpus.push_back(std::make_unique<Vcpu>(sim, i, sched.initial_schedule()));
    sched.attach(*vcpus.back(), 0, 10.0 + i * 5.0);  // caps sum to 100%
  }
  SimTime prev_end = 0;
  for (auto& v : vcpus) {
    EXPECT_GE(v->schedule().window_begin(), prev_end);
    prev_end = v->schedule().window_end();
  }
  EXPECT_LE(prev_end, 10_ms);
}

// Windows must partition (a subset of) the slice: pairwise disjoint, laid
// out in attach order, and never extending past the slice end.
void expect_valid_layout(const std::vector<std::unique_ptr<Vcpu>>& vcpus,
                         SimTime slice) {
  std::vector<std::pair<SimTime, SimTime>> windows;
  windows.reserve(vcpus.size());
  for (const auto& v : vcpus) {
    windows.emplace_back(v->schedule().window_begin(),
                         v->schedule().window_end());
  }
  std::sort(windows.begin(), windows.end());
  SimTime prev_end = 0;
  for (const auto& [begin, end] : windows) {
    EXPECT_GE(begin, prev_end);  // disjoint from the previous window
    EXPECT_LT(begin, end);       // non-empty
    EXPECT_LE(end, slice);       // inside the slice
    prev_end = end;
  }
}

TEST(CreditScheduler, ManyEqualWeightsRoundingStaysWithinSlice) {
  // Regression: 15 equal shares of a 10 ms slice have a fractional ideal
  // width (666666.67 ns). Rounding each window up independently used to
  // accumulate past the slice end and overlap neighbouring windows.
  Simulation sim;
  CreditScheduler sched(sim, 1);
  std::vector<std::unique_ptr<Vcpu>> vcpus;
  for (std::uint32_t i = 0; i < 15; ++i) {
    vcpus.push_back(std::make_unique<Vcpu>(sim, i, sched.initial_schedule()));
    sched.attach(*vcpus.back(), 0);
  }
  expect_valid_layout(vcpus, 10_ms);
  // Largest-remainder rounding conserves the uncapped total exactly.
  SimTime total = 0;
  for (const auto& v : vcpus) total += v->schedule().window_length();
  EXPECT_EQ(total, 10_ms);
}

TEST(CreditScheduler, TinyWeightsDoNotOverflowTheSlice) {
  // Regression: with a few near-zero shares behind many larger ones, the
  // per-VCPU progress floor used to push the layout cursor past the slice
  // end, and the recovery path re-issued the same [slice-1, slice) window
  // to every remaining VCPU — overlapping schedules. On the minimum 10 us
  // slice a 1%-capped VCPU's ideal window is 100 ns, below the 416 ns floor
  // of 24 VCPUs.
  Simulation sim;
  SchedulerConfig cfg;
  cfg.slice = 10 * sim::kMicrosecond;
  CreditScheduler sched(sim, 1, cfg);
  std::vector<std::unique_ptr<Vcpu>> vcpus;
  for (std::uint32_t i = 0; i < 24; ++i) {
    vcpus.push_back(std::make_unique<Vcpu>(sim, i, sched.initial_schedule()));
    // The two trailing VCPUs are capped at 1%, the rest uncapped.
    sched.attach(*vcpus.back(), 0, i < 22 ? 100.0 : 1.0);
  }
  expect_valid_layout(vcpus, cfg.slice);
  // The floor raised the starved VCPUs above their 100 ns ideal windows.
  EXPECT_EQ(vcpus[22]->schedule().window_length(), 416u);
  EXPECT_EQ(vcpus[23]->schedule().window_length(), 416u);
}

TEST(CreditScheduler, RelayoutPropertyWindowsDisjointOrderedWithinSlice) {
  std::mt19937 rng(20260806u);
  // A cap drawn from {1% (below the progress floor on the short slice),
  // 1..100%, uncapped}.
  const auto draw_cap = [&rng] {
    switch (rng() % 3) {
      case 0: return 1.0;
      case 1: return 1.0 + static_cast<double>(rng() % 100);
      default: return 100.0;
    }
  };
  for (int iter = 0; iter < 150; ++iter) {
    Simulation sim;
    SchedulerConfig cfg;
    // The 10 us minimum slice drives windows below the floor; 10 ms does
    // not, and checks the common case.
    if (rng() % 2 == 0) cfg.slice = 10 * sim::kMicrosecond;
    CreditScheduler sched(sim, 1, cfg);
    const std::uint32_t n = 1 + rng() % 24;
    std::vector<std::unique_ptr<Vcpu>> vcpus;
    for (std::uint32_t i = 0; i < n; ++i) {
      vcpus.push_back(
          std::make_unique<Vcpu>(sim, i, sched.initial_schedule()));
      sched.attach(*vcpus.back(), 0, draw_cap());
      expect_valid_layout(vcpus, cfg.slice);  // after every relayout
    }
    // Exercise relayout from non-initial states too.
    for (int m = 0; m < 3; ++m) {
      sched.set_cap(*vcpus[rng() % n], draw_cap());
      expect_valid_layout(vcpus, cfg.slice);
    }
  }
}

TEST(CreditScheduler, AttachValidation) {
  Simulation sim;
  CreditScheduler sched(sim, 1);
  Vcpu v(sim, 1, sched.initial_schedule());
  EXPECT_THROW(sched.attach(v, 5), std::out_of_range);
  sched.attach(v, 0);
  EXPECT_THROW(sched.attach(v, 0), std::logic_error);
}

TEST(CreditScheduler, QueriesOnUnattachedThrow) {
  Simulation sim;
  CreditScheduler sched(sim, 1);
  Vcpu v(sim, 1, sched.initial_schedule());
  EXPECT_THROW((void)sched.cap(v), std::logic_error);
  EXPECT_THROW(sched.set_cap(v, 50.0), std::logic_error);
  EXPECT_THROW((void)sched.pcpu_of(v), std::logic_error);
}

TEST(CreditScheduler, DetachRelayoutsSurvivors) {
  Simulation sim;
  CreditScheduler sched(sim, 1);
  Vcpu a(sim, 1, sched.initial_schedule());
  Vcpu b(sim, 2, sched.initial_schedule());
  sched.attach(a, 0);
  sched.attach(b, 0);
  EXPECT_NEAR(a.schedule().duty_cycle(), 0.5, 1e-6);
  sched.detach(a);
  EXPECT_NEAR(b.schedule().duty_cycle(), 1.0, 1e-6);
  EXPECT_EQ(sched.load_of(0), 1u);
  sched.detach(a);  // double detach is a no-op
}

TEST(CreditScheduler, SliceBelowTheFloorIsRejected) {
  Simulation sim;
  SchedulerConfig tiny;
  tiny.slice = 5 * sim::kMicrosecond;
  EXPECT_THROW(CreditScheduler(sim, 1, tiny), std::invalid_argument);
}

TEST(CreditScheduler, LoadOfChecksBounds) {
  Simulation sim;
  CreditScheduler sched(sim, 2);
  EXPECT_EQ(sched.load_of(1), 0u);
  EXPECT_THROW((void)sched.load_of(7), std::out_of_range);
}

}  // namespace
}  // namespace resex::hv
