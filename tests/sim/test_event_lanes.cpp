// Differential tests of the event kernel's fixed-delay lanes: a seeded
// random program of kernel operations runs against the queue and against a
// reference ordered by (time, push index), step by step.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace resex::sim {
namespace {

// Small delays over a small time range, so that ties between lanes, and
// between a lane and the heap, are common.
constexpr std::array<SimDuration, 3> kDeclared{3, 7, 20};
constexpr SimDuration kMaxDelay = 24;

bool declared(SimDuration d) {
  for (const SimDuration x : kDeclared) {
    if (x == d) return true;
  }
  return false;
}

/// The queue driven the way Simulation drives it (pushes `delay` after a
/// clock that only moves forward, pops up to a limit), next to a reference
/// set of the pending (time, push index) keys.
class LaneProgram {
 public:
  explicit LaneProgram(std::uint64_t seed) : rng_(seed) {
    for (const SimDuration d : kDeclared) q_.add_lane(d);
  }
  LaneProgram(const LaneProgram&) = delete;
  LaneProgram& operator=(const LaneProgram&) = delete;
  // A run cut short by a failed assertion leaves captures in the queue;
  // their victims must not reach back into a program being destroyed.
  ~LaneProgram() { closed_ = true; }

  void run(int ops) {
    for (int op = 0; op < ops; ++op) {
      const std::uint64_t r = rng_.uniform_u64(100);
      if (r < 35) {
        schedule_in(kDeclared[rng_.uniform_u64(kDeclared.size())]);
      } else if (r < 45) {
        schedule_in(rng_.uniform_u64(kMaxDelay + 1));
      } else if (r < 50) {
        // Simulation::schedule_at at exactly a lane event's time.
        if (const Rec* lane = random_pending(true)) {
          schedule_in(lane->time - now_);
        }
      } else if (r < 55) {
        // A bare heap push tied with a lane event: the lane key's smaller
        // push index must win the tie.
        if (const Rec* lane = random_pending(true)) push_heap(lane->time);
      } else if (r < 64) {
        if (!recs_.empty()) cancel(rng_.uniform_u64(recs_.size()));
      } else if (r < 69) {
        cancel_lane_front(kDeclared[rng_.uniform_u64(kDeclared.size())]);
      } else if (r < 95) {
        pop_one();
      } else if (const Rec* lane = random_pending(true)) {
        run_until(lane->time);
      }
      if (::testing::Test::HasFatalFailure()) return;
      check_state();
    }
    draining_ = true;
    while (!ref_.empty()) {
      pop_one();
      if (::testing::Test::HasFatalFailure()) return;
      check_state();
    }
    EXPECT_TRUE(q_.empty());
  }

  [[nodiscard]] std::size_t lane_pushes() const { return lane_pushes_; }
  [[nodiscard]] std::size_t bursts() const { return bursts_; }
  [[nodiscard]] std::size_t front_cancels() const { return front_cancels_; }
  [[nodiscard]] std::size_t dtor_cancels() const { return dtor_cancels_; }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;  // (time, push index)

  struct Rec {
    EventHandle handle;
    SimTime time = 0;
    SimDuration delay = 0;  // from the clock at push time
    bool lane = false;      // pushed with a declared delay
  };

  /// Cancels event `victim` when its holder's capture is destroyed: after
  /// it fires, or when it is cancelled.
  struct Victim {
    LaneProgram* prog = nullptr;
    std::size_t victim = 0;
    Victim(LaneProgram* p, std::size_t v) : prog(p), victim(v) {}
    Victim(Victim&& o) noexcept
        : prog(std::exchange(o.prog, nullptr)), victim(o.victim) {}
    Victim& operator=(Victim&&) = delete;
    ~Victim() {
      if (prog != nullptr && !prog->closed_) {
        prog->cancel_from_destructor(victim);
      }
    }
  };

  [[nodiscard]] Key key(std::size_t i) const { return {recs_[i].time, i}; }

  void schedule_in(SimDuration delay) {
    const std::size_t id = recs_.size();
    const bool lane = declared(delay);
    lane_pushes_ += lane ? 1 : 0;
    recs_.push_back({{}, now_ + delay, delay, lane});
    ref_.insert(key(id));
    recs_[id].handle = q_.push_after(now_, delay, capture(id));
  }

  void push_heap(SimTime t) {
    const std::size_t id = recs_.size();
    recs_.push_back({{}, t, t - now_, false});
    ref_.insert(key(id));
    recs_[id].handle = q_.push(t, capture(id));
  }

  Callback capture(std::size_t id) {
    // One in ten captures holds a pending lane event as its victim.
    const Rec* v = rng_.uniform_u64(10) == 0 ? random_pending(true) : nullptr;
    if (v != nullptr) {
      const auto victim = static_cast<std::size_t>(v - recs_.data());
      return [this, id, guard = Victim(this, victim)] { fire(id); };
    }
    return [this, id] { fire(id); };
  }

  void fire(std::size_t id) {
    fired_ = id;
    EXPECT_EQ(now_, recs_[id].time);
    // Grow a lane's ring while a callback runs.
    if (!draining_ && rng_.uniform_u64(50) == 0) {
      ++bursts_;
      const SimDuration d = kDeclared[rng_.uniform_u64(kDeclared.size())];
      for (int i = 0; i < 40; ++i) schedule_in(d);
    }
  }

  void cancel(std::size_t i) {
    EXPECT_EQ(recs_[i].handle.pending(), ref_.count(key(i)) == 1);
    ref_.erase(key(i));
    recs_[i].handle.cancel();
    EXPECT_FALSE(recs_[i].handle.pending());
  }

  void cancel_from_destructor(std::size_t i) {
    if (recs_[i].handle.pending()) ++dtor_cancels_;
    cancel(i);
    // The queue is consistent while a dying capture runs.
    EXPECT_EQ(q_.size(), ref_.size());
  }

  /// Cancel the earliest pending event of delay `d`'s lane.
  void cancel_lane_front(SimDuration d) {
    for (const Key& k : ref_) {
      const Rec& r = recs_[k.second];
      if (r.lane && r.delay == d) {
        ++front_cancels_;
        cancel(k.second);
        return;
      }
    }
  }

  /// A random pending event (pushed with a declared delay if `lane`), or
  /// nullptr if there is none.
  const Rec* random_pending(bool lane) {
    if (ref_.empty()) return nullptr;
    auto it = ref_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng_.uniform_u64(ref_.size())));
    for (std::size_t n = 0; n < ref_.size(); ++n) {
      if (recs_[it->second].lane == lane) return &recs_[it->second];
      if (++it == ref_.end()) it = ref_.begin();
    }
    return nullptr;
  }

  /// Pop and run the earliest event due by `limit`; false if none is.
  bool pop_due(SimTime limit) {
    const bool due = !ref_.empty() && ref_.begin()->first <= limit;
    Event ev;
    const bool popped = q_.pop_due(limit, ev);
    EXPECT_EQ(popped, due);
    if (!popped || !due) return false;
    const Key expect = *ref_.begin();
    ref_.erase(ref_.begin());
    EXPECT_EQ(ev.time, expect.first);
    now_ = ev.time;
    ev.fn();
    EXPECT_EQ(fired_, expect.second)
        << "popped push " << fired_ << ", reference says " << expect.second
        << " at t=" << expect.first;
    return fired_ == expect.second;
  }

  void pop_one() {
    if (!pop_due(~SimTime{0})) {
      ASSERT_TRUE(ref_.empty());
    }
  }

  /// Simulation::run_until(limit): every event due by `limit`, including
  /// ones pushed on the way, then the clock moves to `limit`.
  void run_until(SimTime limit) {
    while (pop_due(limit)) {
    }
    ASSERT_TRUE(ref_.empty() || ref_.begin()->first > limit);
    now_ = limit;
  }

  void check_state() {
    ASSERT_EQ(q_.size(), ref_.size());
    ASSERT_EQ(q_.empty(), ref_.empty());
    if (!ref_.empty()) {
      ASSERT_EQ(q_.next_time(), ref_.begin()->first);
    }
  }

  Rng rng_;
  std::vector<Rec> recs_;  // indexed by push index
  std::set<Key> ref_;      // pending events
  SimTime now_ = 0;
  std::size_t fired_ = 0;
  bool draining_ = false;
  bool closed_ = false;
  std::size_t lane_pushes_ = 0;
  std::size_t bursts_ = 0;
  std::size_t front_cancels_ = 0;
  std::size_t dtor_cancels_ = 0;
  EventQueue q_;  // destroyed first, while the members above still live
};

TEST(EventLanes, RandomProgramMatchesReferenceOrder) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    LaneProgram prog(seed);
    prog.run(20000);
    if (::testing::Test::HasFatalFailure()) return;
    // The program reached every path it is meant to reach.
    EXPECT_GT(prog.lane_pushes(), 5000u);
    EXPECT_GT(prog.bursts(), 10u);
    EXPECT_GT(prog.front_cancels(), 100u);
    EXPECT_GT(prog.dtor_cancels(), 10u);
  }
}

/// A self-driving random world: every event logs (now, id) and schedules
/// followers at random delays, re-arms or cancels a far timer, and the
/// driver advances with run_until to lane events' times. Run with and
/// without declared delays, the logs must be identical.
std::vector<std::pair<SimTime, std::uint64_t>> run_world(bool lanes) {
  Simulation sim;
  if (lanes) {
    for (const SimDuration d : kDeclared) sim.declare_fixed_delay(d);
  }
  Rng rng(11);
  std::vector<std::pair<SimTime, std::uint64_t>> log;
  std::uint64_t next_id = 0;
  EventHandle timer;
  std::vector<SimTime> lane_times;
  struct Spawner {
    Simulation& sim;
    Rng& rng;
    std::vector<std::pair<SimTime, std::uint64_t>>& log;
    std::uint64_t& next_id;
    EventHandle& timer;
    std::vector<SimTime>& lane_times;
    void operator()(int followers) {
      for (int i = 0; i < followers; ++i) {
        const std::uint64_t id = next_id++;
        const std::uint64_t r = rng.uniform_u64(10);
        auto fn = [this, id] {
          log.emplace_back(sim.now(), id);
          if (log.size() < 30000) (*this)(static_cast<int>(rng.uniform_u64(4)));
        };
        if (r < 6) {
          const SimDuration d = kDeclared[rng.uniform_u64(kDeclared.size())];
          lane_times.push_back(sim.now() + d);
          sim.schedule_in(d, std::move(fn));
        } else if (r < 8) {
          sim.schedule_in(rng.uniform_u64(kMaxDelay + 1), std::move(fn));
        } else if (r < 9 && !lane_times.empty()) {
          const SimTime t = lane_times[rng.uniform_u64(lane_times.size())];
          if (t >= sim.now()) sim.schedule_at(t, std::move(fn));
        } else {
          timer.cancel();
          timer = sim.schedule_in(1000 + rng.uniform_u64(1000), std::move(fn));
        }
      }
    }
  };
  Spawner spawn{sim, rng, log, next_id, timer, lane_times};
  sim.schedule_at(0, [&spawn] { spawn(8); });
  sim.run_until(0);
  int limited_runs = 0;
  for (int round = 0; round < 200 && !lane_times.empty(); ++round) {
    // The limit is exactly a lane event's time.
    const SimTime limit =
        lane_times[lane_times.size() - 1 -
                   rng.uniform_u64(std::min<std::size_t>(lane_times.size(), 16))];
    if (limit >= sim.now()) {
      sim.run_until(limit);
      ++limited_runs;
    }
    log.emplace_back(sim.now(), ~std::uint64_t{0});
  }
  EXPECT_GT(limited_runs, 100);
  sim.run();
  return log;
}

TEST(EventLanes, DeclaredDelaysKeepSimulationOrder) {
  const auto heap_only = run_world(false);
  const auto with_lanes = run_world(true);
  EXPECT_GT(heap_only.size(), 10000u);
  EXPECT_EQ(with_lanes, heap_only);
}

}  // namespace
}  // namespace resex::sim
