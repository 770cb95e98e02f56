// Differential tests of the event kernel's fixed-delay lanes: a seeded
// random program of kernel operations runs against the queue and against a
// reference ordered by (time, push index), step by step.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
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
  return std::find(kDeclared.begin(), kDeclared.end(), d) != kDeclared.end();
}

/// The queue driven the way Simulation drives it (posts and pushes after a
/// clock that only moves forward, pops up to a limit), next to a reference
/// set of the pending (time, push index) keys. Posts at declared delays
/// wait in lanes, posts at other delays and every push on the heap; only
/// pushes can be cancelled.
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
      if (r < 30) {
        post(kDeclared[rng_.uniform_u64(kDeclared.size())]);
      } else if (r < 36) {
        post(rng_.uniform_u64(kMaxDelay + 1));
      } else if (r < 46) {
        push(now_ + rng_.uniform_u64(kMaxDelay + 1));
      } else if (r < 51) {
        // A push tied with a pending post: the post's smaller push index
        // must win the tie.
        if (const Rec* p = random_pending(true)) {
          ++ties_;
          push(p->time);
        }
      } else if (r < 55) {
        // A post tied with an earlier push: the push wins.
        const SimDuration d = kDeclared[rng_.uniform_u64(kDeclared.size())];
        ++ties_;
        push(now_ + d);
        post(d);
      } else if (r < 64) {
        if (const Rec* h = random_pending(false)) cancel(h->id);
      } else if (r < 95) {
        pop_one();
      } else if (const Rec* p = random_pending(true)) {
        ++run_untils_;
        run_until(p->time);
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

  [[nodiscard]] std::size_t lane_posts() const { return lane_posts_; }
  [[nodiscard]] std::size_t heap_posts() const { return heap_posts_; }
  [[nodiscard]] std::size_t ties() const { return ties_; }
  [[nodiscard]] std::size_t bursts() const { return bursts_; }
  [[nodiscard]] std::size_t dtor_cancels() const { return dtor_cancels_; }
  [[nodiscard]] std::size_t run_untils() const { return run_untils_; }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;  // (time, push index)

  struct Rec {
    LaneProgram* prog = nullptr;
    std::size_t id = 0;
    SimTime time = 0;
    bool post = false;
    EventHandle handle;  // pushes only
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

  Rec& add(SimTime t, bool is_post) {
    const std::size_t id = recs_.size();
    recs_.push_back({this, id, t, is_post, {}});
    ref_.insert(key(id));
    return recs_.back();
  }

  void post(SimDuration delay) {
    (declared(delay) ? lane_posts_ : heap_posts_) += 1;
    Rec& r = add(now_ + delay, true);
    q_.post(
        now_, delay,
        [](void* p) {
          const auto* rec = static_cast<Rec*>(p);
          rec->prog->fire(rec->id);
        },
        &r);
  }

  void push(SimTime t) {
    Rec& r = add(t, false);
    // One in ten captures holds a pending push as its victim.
    const Rec* v = rng_.uniform_u64(10) == 0 ? random_pending(false) : nullptr;
    if (v != nullptr && v != &r) {
      r.handle = q_.push(
          t, [this, id = r.id, guard = Victim(this, v->id)] { fire(id); });
    } else {
      r.handle = q_.push(t, [this, id = r.id] { fire(id); });
    }
  }

  void fire(std::size_t id) {
    fired_ = id;
    EXPECT_EQ(now_, recs_[id].time);
    // Grow a lane's ring while an event runs.
    if (!draining_ && rng_.uniform_u64(50) == 0) {
      ++bursts_;
      const SimDuration d = kDeclared[rng_.uniform_u64(kDeclared.size())];
      for (int i = 0; i < 40; ++i) post(d);
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

  /// A random pending post (if `is_post`) or push, or nullptr if there is
  /// none.
  const Rec* random_pending(bool is_post) {
    if (ref_.empty()) return nullptr;
    auto it = ref_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng_.uniform_u64(ref_.size())));
    for (std::size_t n = 0; n < ref_.size(); ++n) {
      if (recs_[it->second].post == is_post) return &recs_[it->second];
      if (++it == ref_.end()) it = ref_.begin();
    }
    return nullptr;
  }

  /// Pop and run the earliest event due by `limit`; false if none is. Half
  /// the unlimited pops go through pop(), which hands a post back wrapped
  /// as a callback.
  bool pop_due(SimTime limit) {
    const bool due = !ref_.empty() && ref_.begin()->first <= limit;
    Event ev;
    bool popped = false;
    if (limit == ~SimTime{0} && due && rng_.uniform_u64(2) == 0) {
      ev = q_.pop();
      popped = true;
      EXPECT_EQ(ev.post, nullptr);
    } else {
      popped = q_.pop_due(limit, ev);
    }
    EXPECT_EQ(popped, due);
    if (!popped || !due) return false;
    const Key expect = *ref_.begin();
    ref_.erase(ref_.begin());
    EXPECT_EQ(ev.time, expect.first);
    now_ = ev.time;
    if (ev.post != nullptr) {
      ev.post(ev.ctx);
    } else {
      ev.fn();
    }
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
  /// ones posted or pushed on the way, then the clock moves to `limit`.
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
  std::deque<Rec> recs_;  // indexed by push index; posts point into it
  std::set<Key> ref_;     // pending events
  SimTime now_ = 0;
  std::size_t fired_ = 0;
  bool draining_ = false;
  bool closed_ = false;
  std::size_t lane_posts_ = 0;
  std::size_t heap_posts_ = 0;
  std::size_t ties_ = 0;
  std::size_t bursts_ = 0;
  std::size_t dtor_cancels_ = 0;
  std::size_t run_untils_ = 0;
  EventQueue q_;  // destroyed first, while the members above still live
};

TEST(EventLanes, RandomProgramMatchesReferenceOrder) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    LaneProgram prog(seed);
    prog.run(20000);
    if (::testing::Test::HasFatalFailure()) return;
    // The program reached every path it is meant to reach.
    EXPECT_GT(prog.lane_posts(), 5000u);
    EXPECT_GT(prog.heap_posts(), 500u);
    EXPECT_GT(prog.ties(), 1000u);
    EXPECT_GT(prog.bursts(), 10u);
    EXPECT_GT(prog.dtor_cancels(), 10u);
    EXPECT_GT(prog.run_untils(), 100u);
  }
}

/// A self-driving random world: every event logs (now, id) and makes
/// followers at random delays (posts, pushes, a push at a post's time),
/// re-arms or cancels a far timer, and the test advances with run_until
/// to posts' times. Run with and without declared delays, so that the same
/// posts wait in lanes or on the heap, the logs must be identical.
std::vector<std::pair<SimTime, std::uint64_t>> run_world(bool lanes) {
  Simulation sim;
  if (lanes) {
    for (const SimDuration d : kDeclared) sim.declare_fixed_delay(d);
  }
  Rng rng(11);
  std::vector<std::pair<SimTime, std::uint64_t>> log;
  std::uint64_t next_id = 0;
  EventHandle timer;
  std::vector<SimTime> post_times;
  struct Spawner;
  struct Node {
    Spawner* spawner;
    std::uint64_t id;
  };
  struct Spawner {
    Simulation& sim;
    Rng& rng;
    std::vector<std::pair<SimTime, std::uint64_t>>& log;
    std::uint64_t& next_id;
    EventHandle& timer;
    std::vector<SimTime>& post_times;
    std::deque<Node> nodes{};  // stable contexts for the posts
    std::size_t live = 0;      // events pending

    void fire(std::uint64_t id) {
      --live;
      log.emplace_back(sim.now(), id);
      // Up to three followers each while few events are pending, at most
      // one while many are: the world neither dies out nor explodes.
      const std::uint64_t n = live < 64 ? 4 : 2;
      if (log.size() < 30000) (*this)(static_cast<int>(rng.uniform_u64(n)));
    }
    void operator()(int followers) {
      for (int i = 0; i < followers; ++i) {
        const std::uint64_t id = next_id++;
        const std::uint64_t r = rng.uniform_u64(10);
        auto fn = [this, id] { fire(id); };
        ++live;
        if (r < 7) {
          const SimDuration d =
              r < 5 ? kDeclared[rng.uniform_u64(kDeclared.size())]
                    : rng.uniform_u64(kMaxDelay + 1);
          post_times.push_back(sim.now() + d);
          nodes.push_back({this, id});
          sim.post_in(
              d,
              [](void* p) {
                const auto* n = static_cast<Node*>(p);
                n->spawner->fire(n->id);
              },
              &nodes.back());
        } else if (r < 8) {
          sim.schedule_in(rng.uniform_u64(kMaxDelay + 1), std::move(fn));
        } else if (r < 9 && !post_times.empty()) {
          const SimTime t = post_times[rng.uniform_u64(post_times.size())];
          if (t >= sim.now()) {
            sim.schedule_at(t, std::move(fn));
          } else {
            --live;
          }
        } else {
          if (timer.pending()) --live;
          timer.cancel();
          timer = sim.schedule_in(1000 + rng.uniform_u64(1000), std::move(fn));
        }
      }
    }
  };
  Spawner spawn{sim, rng, log, next_id, timer, post_times};
  sim.schedule_at(0, [&spawn] { spawn(8); });
  sim.run_until(0);
  int limited_runs = 0;
  for (int round = 0; round < 200 && !post_times.empty(); ++round) {
    // The limit is exactly a post's time.
    const SimTime limit =
        post_times[post_times.size() - 1 -
                   rng.uniform_u64(std::min<std::size_t>(post_times.size(), 16))];
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
