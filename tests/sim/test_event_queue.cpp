#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace resex::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  (void)q.push(30, [&] { order.push_back(3); });
  (void)q.push(10, [&] { order.push_back(1); });
  (void)q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    (void)q.push(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  (void)q.push(500, [] {});
  (void)q.push(100, [] {});
  EXPECT_EQ(q.next_time(), 100u);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.push(10, [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelMiddleEventSkipsOnlyIt) {
  EventQueue q;
  std::vector<int> order;
  (void)q.push(1, [&] { order.push_back(1); });
  EventHandle h = q.push(2, [&] { order.push_back(2); });
  (void)q.push(3, [&] { order.push_back(3); });
  h.cancel();
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
}

TEST(EventQueue, HandleNotPendingAfterPop) {
  EventQueue q;
  int runs = 0;
  EventHandle h = q.push(1, [&] { ++runs; });
  auto ev = q.pop();
  // Popped means no longer pending, even while the callback is still owned
  // by `ev` and has not run yet; cancelling now is harmless.
  EXPECT_FALSE(h.pending());
  h.cancel();
  ev.fn();
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleHandleCannotCancelReusedSlot) {
  EventQueue q;
  EventHandle stale = q.push(1, [] {});
  q.pop().fn();
  // The freed slot is reused by the next push; the old handle must not reach
  // the new event.
  bool ran = false;
  EventHandle fresh = q.push(2, [&] { ran = true; });
  stale.cancel();
  EXPECT_FALSE(stale.pending());
  EXPECT_TRUE(fresh.pending());
  ASSERT_FALSE(q.empty());
  q.pop().fn();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, StaleHandleOfCancelledEventCannotCancelReusedSlot) {
  EventQueue q;
  EventHandle stale = q.push(1, [] {});
  stale.cancel();
  EXPECT_TRUE(q.empty());  // cancel() freed the slot at once
  bool ran = false;
  EventHandle fresh = q.push(2, [&] { ran = true; });
  stale.cancel();
  EXPECT_TRUE(fresh.pending());
  ASSERT_FALSE(q.empty());
  q.pop().fn();
  EXPECT_TRUE(ran);
}

TEST(EventQueue, RandomPushCancelPopMatchesSortedReference) {
  // Reference model: the live (time, seq) keys in a sorted set. The queue
  // must pop exactly the reference minimum, every time, and its size must
  // match the reference's after every operation.
  EventQueue q;
  std::set<std::pair<SimTime, std::uint64_t>> ref;
  std::vector<std::pair<EventHandle, std::pair<SimTime, std::uint64_t>>>
      handles;
  std::pair<SimTime, std::uint64_t> fired{};
  std::uint64_t seq = 0;
  SimTime now = 0;
  Rng rng(7);
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t r = rng.uniform_u64(10);
    if (r < 5) {
      // Few distinct times, so same-instant FIFO ties are common.
      const SimTime t = now + rng.uniform_u64(8);
      const auto key = std::make_pair(t, seq++);
      handles.emplace_back(q.push(t, [&fired, key] { fired = key; }), key);
      ref.insert(key);
      ASSERT_EQ(q.size(), ref.size());
    } else if (r < 7 && !handles.empty()) {
      const auto i = static_cast<std::size_t>(rng.uniform_u64(handles.size()));
      auto& [h, key] = handles[i];
      EXPECT_EQ(h.pending(), ref.count(key) == 1);
      h.cancel();
      EXPECT_FALSE(h.pending());
      ref.erase(key);
      ASSERT_EQ(q.size(), ref.size());
    } else {
      EXPECT_EQ(q.empty(), ref.empty());
      if (ref.empty()) continue;
      EXPECT_EQ(q.next_time(), ref.begin()->first);
      auto ev = q.pop();
      ev.fn();
      ASSERT_EQ(fired, *ref.begin());
      EXPECT_EQ(ev.time, fired.first);
      now = ev.time;
      ref.erase(ref.begin());
      ASSERT_EQ(q.size(), ref.size());
    }
  }
  while (!ref.empty()) {
    ASSERT_FALSE(q.empty());
    q.pop().fn();
    ASSERT_EQ(fired, *ref.begin());
    ref.erase(ref.begin());
    ASSERT_EQ(q.size(), ref.size());
  }
  EXPECT_TRUE(q.empty());
}

/// Counts live copies and calls of a capture, to check that a callback runs
/// once and its captured state is destroyed exactly once.
struct Tally {
  int calls = 0;
  int alive = 0;
};

struct Probe {
  explicit Probe(Tally* t) : tally(t) { ++tally->alive; }
  Probe(const Probe& o) : tally(o.tally) { ++tally->alive; }
  Probe(Probe&& o) noexcept : tally(o.tally) { ++tally->alive; }
  Probe& operator=(const Probe&) = delete;
  ~Probe() { --tally->alive; }
  Tally* tally;
};

TEST(EventQueue, OversizedCaptureRunsOnceAndIsDestroyedOnce) {
  Tally tally;
  {
    EventQueue q;
    std::array<std::uint64_t, 16> big{};  // 128 bytes: heap fallback
    big[15] = 42;
    static_assert(sizeof(big) > Callback::kInlineSize);
    (void)q.push(1, [probe = Probe(&tally), big] {
      probe.tally->calls += static_cast<int>(big[15] / 42);
    });
    EXPECT_EQ(tally.alive, 1);
    q.pop().fn();
    EXPECT_EQ(tally.calls, 1);
    EXPECT_EQ(tally.alive, 0);
    EXPECT_TRUE(q.empty());
  }
  EXPECT_EQ(tally.alive, 0);
}

TEST(EventQueue, MoveOnlyCaptureRunsOnceAndIsDestroyedOnce) {
  Tally tally;
  {
    EventQueue q;
    auto owned = std::make_unique<Probe>(&tally);
    (void)q.push(1, [p = std::move(owned)] { ++p->tally->calls; });
    EXPECT_EQ(tally.alive, 1);
    q.pop().fn();
    EXPECT_EQ(tally.calls, 1);
    EXPECT_EQ(tally.alive, 0);
  }
  EXPECT_EQ(tally.alive, 0);
}

TEST(EventQueue, CancelledAndUnpoppedCapturesAreDestroyed) {
  Tally tally;
  {
    EventQueue q;
    EventHandle h = q.push(1, [p = Probe(&tally)] { ++p.tally->calls; });
    (void)q.push(2, [p = Probe(&tally)] { ++p.tally->calls; });
    EXPECT_EQ(tally.alive, 2);
    h.cancel();
    // Eager cancellation: the capture dies inside cancel() itself.
    EXPECT_EQ(tally.alive, 1);
    EXPECT_EQ(q.size(), 1u);
  }
  // The queue died with one event still pending: its capture died with it.
  EXPECT_EQ(tally.calls, 0);
  EXPECT_EQ(tally.alive, 0);
}

TEST(Callback, PacketSizedCaptureFitsInline) {
  // The largest capture left on the hot path is Hca::complete_send's
  // `[cq, cqe]` (40 B); this `[this, flag, 40-byte packet]` shape is larger
  // still, and must not allocate either.
  struct PacketLike {
    std::shared_ptr<int> transfer;
    std::uint64_t a, b, c;
  };
  static_assert(sizeof(PacketLike) == 40);
  void* self = nullptr;
  bool flag = true;
  PacketLike pkt{};
  auto fn = [self, flag, pkt] { (void)self, (void)flag, (void)pkt; };
  static_assert(sizeof(fn) <= Callback::kInlineSize);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  auto h1 = q.push(1, [] {});
  (void)q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  h1.cancel();
  EXPECT_EQ(q.size(), 1u);
  h1.cancel();  // a second cancel changes nothing
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 2u);
  (void)q.pop();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

/// Cancels `target` when destroyed: a capture whose destructor re-enters
/// the queue.
struct CancelOnDestroy {
  explicit CancelOnDestroy(EventHandle* t) : target(t) {}
  CancelOnDestroy(CancelOnDestroy&& o) noexcept
      : target(std::exchange(o.target, nullptr)) {}
  CancelOnDestroy(const CancelOnDestroy&) = delete;
  CancelOnDestroy& operator=(const CancelOnDestroy&) = delete;
  ~CancelOnDestroy() {
    if (target != nullptr) target->cancel();
  }
  EventHandle* target;
};

TEST(EventQueue, CaptureDestructorMayCancelAnotherEvent) {
  EventQueue q;
  std::vector<int> order;
  EventHandle victim;
  (void)q.push(1, [&] { order.push_back(1); });
  EventHandle outer =
      q.push(2, [&order, c = CancelOnDestroy(&victim)] { order.push_back(2); });
  victim = q.push(3, [&] { order.push_back(3); });
  (void)q.push(4, [&] { order.push_back(4); });
  ASSERT_EQ(q.size(), 4u);
  // Cancelling `outer` destroys its capture, which cancels `victim` from
  // inside the first cancel().
  outer.cancel();
  EXPECT_FALSE(outer.pending());
  EXPECT_FALSE(victim.pending());
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 4}));
}

TEST(EventQueue, CallbackCancellingItsOwnHandleIsANoOp) {
  EventQueue q;
  int runs = 0;
  EventHandle self;
  self = q.push(1, [&] {
    ++runs;
    EXPECT_FALSE(self.pending());
    self.cancel();
  });
  (void)q.push(2, [&] { ++runs; });
  q.pop().fn();
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_EQ(runs, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ManyInterleavedPushesPopsStaySorted) {
  EventQueue q;
  std::vector<std::uint64_t> popped;
  for (std::uint64_t i = 0; i < 100; ++i) {
    (void)q.push((i * 7919) % 101, [] {});
  }
  std::uint64_t last = 0;
  while (!q.empty()) {
    auto t = q.next_time();
    EXPECT_GE(t, last);
    last = t;
    (void)q.pop();
  }
}

}  // namespace
}  // namespace resex::sim
