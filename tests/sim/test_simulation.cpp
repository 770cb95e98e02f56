#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/task.hpp"
#include "sim/time.hpp"

namespace resex::sim {
namespace {

using namespace resex::sim::literals;

TEST(Simulation, ClockStartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0u);
}

TEST(Simulation, CallbackRunsAtScheduledTime) {
  Simulation sim;
  SimTime seen = 0;
  sim.schedule_at(5_us, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 5_us);
  EXPECT_EQ(sim.now(), 5_us);
}

TEST(Simulation, ScheduleInIsRelative) {
  Simulation sim;
  std::vector<SimTime> times;
  sim.schedule_at(10_us, [&] {
    sim.schedule_in(7_us, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 17_us);
}

TEST(Simulation, SchedulingInThePastThrows) {
  Simulation sim;
  sim.schedule_at(10_us, [&] {
    EXPECT_THROW((void)sim.schedule_at(5_us, [] {}), std::logic_error);
  });
  sim.run();
}

TEST(Simulation, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulation sim;
  sim.run_until(1_ms);
  EXPECT_EQ(sim.now(), 1_ms);
}

TEST(Simulation, RunUntilLeavesLaterEventsPending) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(1_us, [&] { ++fired; });
  sim.schedule_at(3_us, [&] { ++fired; });
  sim.run_until(2_us);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 2_us);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, RunLeavesClockAtLastEvent) {
  Simulation sim;
  sim.schedule_at(4_us, [] {});
  sim.schedule_at(9_us, [] {});
  sim.run();
  EXPECT_EQ(sim.now(), 9_us);
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Simulation, RunUntilRunsEventScheduledAtTheLimit) {
  Simulation sim;
  std::vector<SimTime> times;
  sim.schedule_at(1_us, [&] {
    times.push_back(sim.now());
    // Due exactly at the limit, scheduled from inside run_until: it runs.
    sim.schedule_at(5_us, [&] { times.push_back(sim.now()); });
    sim.schedule_at(6_us, [&] { times.push_back(sim.now()); });
  });
  sim.run_until(5_us);
  EXPECT_EQ(times, (std::vector<SimTime>{1_us, 5_us}));
  EXPECT_EQ(sim.now(), 5_us);
  sim.run_until(8_us);
  EXPECT_EQ(times, (std::vector<SimTime>{1_us, 5_us, 6_us}));
  EXPECT_EQ(sim.now(), 8_us);
}

TEST(Simulation, StepRunsOneEventAtATime) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(2_us, [&] { ++fired; });
  sim.schedule_at(3_us, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 2_us);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.now(), 3_us);
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, RunForAdvancesRelative) {
  Simulation sim;
  sim.run_for(2_us);
  sim.run_for(3_us);
  EXPECT_EQ(sim.now(), 5_us);
}

TEST(Simulation, EventsProcessedCounter) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(static_cast<SimTime>(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(Simulation, PostsCountAsEventsAndFireInPostOrder) {
  Simulation sim;
  sim.declare_fixed_delay(3_us);
  std::vector<int> order;
  const auto log = [](void* p) {
    auto* o = static_cast<std::vector<int>*>(p);
    o->push_back(static_cast<int>(o->size()) * 10 + 1);
  };
  // A lane post made before a heap event at the same instant fires first;
  // one made after it fires after it.
  sim.post_in(3_us, log, &order);
  sim.schedule_in(3_us, [&] { order.push_back(2); });
  sim.post_in(3_us, log, &order);
  // An undeclared delay falls back to the heap, still after the heap event
  // made before it.
  sim.schedule_in(5_us, [&] { order.push_back(4); });
  sim.post_in(5_us, log, &order);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 21, 4, 41}));
  EXPECT_EQ(sim.events_processed(), 5u);
  EXPECT_EQ(sim.now(), 5_us);
}

TEST(Simulation, CancelledEventDoesNotRun) {
  Simulation sim;
  bool ran = false;
  auto h = sim.schedule_at(1_us, [&] { ran = true; });
  h.cancel();
  sim.run();
  EXPECT_FALSE(ran);
}

// --- coroutine tasks --------------------------------------------------------

Task delayer(Simulation& sim, std::vector<SimTime>& log) {
  log.push_back(sim.now());
  co_await sim.delay(10_us);
  log.push_back(sim.now());
  co_await sim.delay(5_us);
  log.push_back(sim.now());
}

TEST(SimulationTask, DelaysAdvanceClock) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.spawn(delayer(sim, log));
  sim.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 0u);
  EXPECT_EQ(log[1], 10_us);
  EXPECT_EQ(log[2], 15_us);
  EXPECT_EQ(sim.live_tasks(), 0u);
}

Task inner(Simulation& sim, std::vector<std::string>& log) {
  log.push_back("inner-start");
  co_await sim.delay(2_us);
  log.push_back("inner-end");
}

Task outer(Simulation& sim, std::vector<std::string>& log) {
  log.push_back("outer-start");
  co_await inner(sim, log);
  log.push_back("outer-end");
}

TEST(SimulationTask, NestedTasksResumeParent) {
  Simulation sim;
  std::vector<std::string> log;
  sim.spawn(outer(sim, log));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"outer-start", "inner-start",
                                           "inner-end", "outer-end"}));
}

Task thrower(Simulation& sim) {
  co_await sim.delay(1_us);
  throw std::runtime_error("task boom");
}

TEST(SimulationTask, DetachedExceptionSurfacesFromRun) {
  Simulation sim;
  sim.spawn(thrower(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

Task rethrowing_parent(Simulation& sim, bool& caught) {
  try {
    co_await thrower(sim);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(SimulationTask, NestedExceptionPropagatesToAwaiter) {
  Simulation sim;
  bool caught = false;
  sim.spawn(rethrowing_parent(sim, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

Task forever(Simulation& sim) {
  for (;;) co_await sim.delay(1_ms);
}

TEST(SimulationTask, PendingTasksAreDestroyedWithSimulation) {
  auto sim = std::make_unique<Simulation>();
  sim->spawn(forever(*sim));
  sim->run_until(10_ms);
  EXPECT_EQ(sim->live_tasks(), 1u);
  sim.reset();  // must not leak or crash (asan-clean)
}

TEST(SimulationTask, AtAwaitsAbsoluteTime) {
  Simulation sim;
  SimTime seen = 0;
  sim.spawn([](Simulation& s, SimTime& out) -> Task {
    co_await s.at(100_us);
    out = s.now();
    co_await s.at(50_us);  // in the past: resumes immediately
    out = s.now();
  }(sim, seen));
  sim.run();
  EXPECT_EQ(seen, 100_us);
}

TEST(SimulationTask, SpawnDuringRunStartsAtCurrentTime) {
  Simulation sim;
  std::vector<SimTime> log;
  sim.schedule_at(7_us, [&] {
    sim.spawn([](Simulation& s, std::vector<SimTime>& l) -> Task {
      l.push_back(s.now());
      co_return;
    }(sim, log));
  });
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 7_us);
}

// --- Trigger ----------------------------------------------------------------

Task wait_on(Trigger& t, Simulation& sim, std::vector<SimTime>& log) {
  co_await t.wait();
  log.push_back(sim.now());
}

TEST(Trigger, FireWakesAllWaiters) {
  Simulation sim;
  Trigger trig(sim);
  std::vector<SimTime> log;
  sim.spawn(wait_on(trig, sim, log));
  sim.spawn(wait_on(trig, sim, log));
  sim.schedule_at(30_us, [&] { trig.fire(); });
  sim.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 30_us);
  EXPECT_EQ(log[1], 30_us);
}

TEST(Trigger, ReusableAfterFire) {
  Simulation sim;
  Trigger trig(sim);
  std::vector<SimTime> log;
  sim.spawn([](Simulation& s, Trigger& t, std::vector<SimTime>& l) -> Task {
    co_await t.wait();
    l.push_back(s.now());
    co_await t.wait();
    l.push_back(s.now());
  }(sim, trig, log));
  sim.schedule_at(10_us, [&] { trig.fire(); });
  sim.schedule_at(20_us, [&] { trig.fire(); });
  sim.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], 10_us);
  EXPECT_EQ(log[1], 20_us);
}

TEST(Trigger, WaiterCount) {
  Simulation sim;
  Trigger trig(sim);
  std::vector<SimTime> log;
  sim.spawn(wait_on(trig, sim, log));
  sim.run();  // task suspends on the trigger; queue drains
  EXPECT_EQ(trig.waiter_count(), 1u);
  trig.fire();
  sim.run();
  EXPECT_EQ(trig.waiter_count(), 0u);
}

TEST(Simulation, DeterministicEventOrderAcrossRuns) {
  auto run_once = [] {
    Simulation sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(static_cast<SimTime>((i * 13) % 7), [&order, i] {
        order.push_back(i);
      });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulation, DispatchLogRecordsOnlyWhileHeld) {
  Simulation sim;
  std::uint64_t keys[2] = {};
  std::uint64_t counters[2] = {};
  sim.schedule_at(1, [] {});
  sim.schedule_at(2, [&] {
    keys[0] = sim.order_key();
    counters[0] = sim.seq_counter();
    sim.schedule_at(5, [] {});  // draws a seq
  });
  sim.schedule_at(2, [&] {
    keys[1] = sim.order_key();
    counters[1] = sim.seq_counter();
  });
  sim.run_until(1);
  EXPECT_EQ(sim.order_log_size(), 0u);
  sim.hold_order_log();
  sim.run_until(2);
  // Two events at 2, then the run's boundary.
  EXPECT_EQ(sim.order_log_size(), 3u);
  EXPECT_LT(keys[0], keys[1]);
  EXPECT_EQ(sim.order_key(), Simulation::kOutside);
  EXPECT_TRUE(sim.logged_at(2));
  EXPECT_FALSE(sim.logged_at(1));
  // A virtual event at 2 sees the counter of the first dispatch after it:
  // drawn before the first event's key, the first event's start; drawn
  // between the two keys, the second's; drawn after both, the boundary's.
  EXPECT_EQ(sim.counter_after(2, keys[0]), counters[0]);
  EXPECT_EQ(sim.counter_after(2, keys[0] + 1), counters[1]);
  EXPECT_EQ(sim.counter_after(2, keys[1] + 1), sim.seq_counter());
  EXPECT_EQ(sim.counter_after(3, 0), sim.seq_counter());
  EXPECT_NE(counters[0], counters[1]);
  sim.hold_order_log();
  sim.release_order_log(3);  // a partial release prunes before `keep_from`
  EXPECT_FALSE(sim.logged_at(2));
  EXPECT_EQ(sim.order_log_size(), 0u);
  sim.release_order_log(0);  // the last release empties the log
  sim.run();
  EXPECT_EQ(sim.order_log_size(), 0u);
}

TEST(Simulation, ExplicitKeysOfOneGapKeepTheOrderHandedOut) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(9, [&] { order.push_back(0); });
  const std::uint64_t gap = sim.seq_counter();
  sim.schedule_at(9, [&] { order.push_back(3); });
  sim.schedule_keyed(9, sim.explicit_key(9, gap), [&] { order.push_back(1); });
  sim.schedule_keyed(9, sim.explicit_key(9, gap), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace resex::sim
