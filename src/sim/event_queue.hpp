#pragma once
// Priority event queue for the discrete-event kernel.
//
// Events are ordered by (time, insertion sequence) so that events scheduled
// for the same instant fire in FIFO order, which makes every simulation run
// fully deterministic.
//
// Storage is pooled, so a steady-state push/pop allocates nothing:
//  * each event's callback lives in a slot of a free-listed vector, reused
//    as soon as its event is popped or cancel() removes it;
//  * the heap is an indexed 4-ary min-heap of flat (time, seq, slot) keys:
//    sifting never touches the callbacks, and each slot records where its
//    key sits so the key can be removed from the middle;
//  * an EventHandle is (queue, slot, generation). Popping or cancelling an
//    event bumps its slot's generation, so a handle to an event that already
//    left the queue can never reach the slot's next occupant.
// Cancellation is eager and O(log n): the key leaves the heap and the
// capture is destroyed at cancel(), so the heap holds live events only.
//
// Fixed-delay lanes sit beside the heap. add_lane(d) declares a delay; a
// push_after(now, d, fn) with a declared d appends its key to that delay's
// lane, a power-of-two ring, in O(1). As long as `now` never decreases (it
// is the caller's clock), every key appended to one lane has a time and a
// seq no smaller than the one before it, so a lane is already sorted by
// (time, seq). pop_due takes the earliest of the heap top and the lane
// fronts by (time, seq) — seq is shared by heap and lanes, so the global
// order is exactly the heap-only order. Cancelling a lane event marks its
// key dead and, at the front, advances the lane past dead keys: a lane's
// front is always live, which keeps size(), empty() and next_time() exact.
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace resex::sim {

/// Move-only `void()` callable for scheduled events. Callables up to
/// kInlineSize bytes live inline (a lambda capturing `this`, a flag and a
/// fabric Packet fits); larger or throwing-move ones fall back to the heap.
class Callback {
 public:
  static constexpr std::size_t kInlineSize = 56;

  Callback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>>
    requires(!std::is_same_v<D, Callback> && std::is_invocable_r_v<void, D&>)
  Callback(F&& f) {  // NOLINT(google-explicit-constructor): lambdas convert
    if constexpr (kFitsInline<D>) {
      // A bitwise move copies the whole buffer. A capture-less callable
      // stores nothing in it, so it is zeroed for that copy to read.
      if constexpr (std::is_empty_v<D>) std::memset(buf_, 0, kInlineSize);
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      D* p = new D(std::forward<F>(f));
      std::memcpy(buf_, &p, sizeof(p));
      ops_ = &kHeapOps<D>;
    }
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  /// Invoke the callable. Precondition: non-empty.
  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-construct into `dst` and destroy `src`; nullptr means the stored
    // bytes may simply be copied.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;  // nullptr: trivially destructible
  };

  template <typename D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* p) { (*static_cast<D*>(p))(); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              ::new (dst) D(std::move(*static_cast<D*>(src)));
              static_cast<D*>(src)->~D();
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* p) noexcept { static_cast<D*>(p)->~D(); }};

  template <typename D>
  static D* heap_ptr(void* p) noexcept {
    D* d = nullptr;
    std::memcpy(&d, p, sizeof(d));
    return d;
  }

  template <typename D>
  static constexpr Ops kHeapOps{[](void* p) { (*heap_ptr<D>(p))(); }, nullptr,
                                [](void* p) noexcept { delete heap_ptr<D>(p); }};

  void take(Callback& other) noexcept {
    ops_ = std::exchange(other.ops_, nullptr);
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineSize);
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

class EventQueue;

/// Cancellation handle for a scheduled event. Default-constructed handles are
/// inert; cancelling an event that already fired is a no-op. A handle stops
/// being pending the moment its event is popped (its callback is running or
/// has run). It refers to its queue by address: never use it after the
/// queue (its Simulation) has been destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event from firing and destroy its capture now. Safe to
  /// call multiple times.
  void cancel();

  /// True if the event is still pending: pushed, not yet popped, and not
  /// removed by cancel().
  [[nodiscard]] bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint32_t gen)
      : queue_(queue), slot_(slot), gen_(gen) {}
  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// A popped event: its time and its callback, owned by the caller.
struct Event {
  SimTime time = 0;
  Callback fn;
};

/// Min-heap of timed callbacks, with FIFO lanes for declared fixed delays.
/// Not thread-safe by design: the kernel is single-threaded and
/// deterministic. Handles hold its address, so it is neither copyable nor
/// movable.
class EventQueue {
 public:
  /// Most fixed delays one queue gives a lane; later declarations are
  /// ignored and their pushes go to the heap.
  static constexpr std::size_t kMaxLanes = 8;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` to run at absolute simulated time `t`, on the heap.
  EventHandle push(SimTime t, Callback fn) {
    return push_heap(t, std::move(fn));
  }

  /// Give pushes of delay `delay` their own FIFO lane. Declaring a delay
  /// twice, or more than kMaxLanes delays, changes nothing.
  void add_lane(SimDuration delay) {
    for (std::size_t i = 0; i < lane_count_; ++i) {
      if (lane_delay_[i] == delay) return;
    }
    if (lane_count_ == kMaxLanes) return;
    lane_delay_[lane_count_++] = delay;
  }

  /// Schedule `fn` to run at `now + delay`: on the delay's lane if it has
  /// one, else on the heap. Precondition: `now` never decreases from one
  /// call to the next (it is the owner's clock), which keeps every lane
  /// sorted.
  [[gnu::always_inline]] EventHandle push_after(SimTime now,
                                               SimDuration delay,
                                               Callback&& fn) {
    for (std::size_t i = 0; i < lane_count_; ++i) {
      if (lane_delay_[i] == delay) {
        return push_lane(static_cast<std::uint8_t>(i), now + delay,
                         std::move(fn));
      }
    }
    return push_heap(now + delay, std::move(fn));
  }

  /// True if no events are pending.
  [[nodiscard]] bool empty() const noexcept {
    return heap_.empty() && lane_live_ == 0;
  }

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() const noexcept {
    const Key* best = heap_.empty() ? nullptr : &heap_.front();
    for (std::uint32_t m = nonempty_; m != 0; m &= m - 1) {
      const Key& f = lanes_[std::countr_zero(m)].front();
      if (best == nullptr || f.time < best->time) best = &f;
    }
    return best->time;
  }

  /// If the earliest pending event is due at or before `limit`, move it into
  /// `out` and return true; otherwise leave `out` alone and return false.
  [[gnu::always_inline]] bool pop_due(SimTime limit, Event& out) {
    if (nonempty_ != 0) {
      // The earliest lane front, then the heap top if it is earlier still.
      std::uint32_t m = nonempty_;
      Lane* lane = &lanes_[std::countr_zero(m)];
      for (m &= m - 1; m != 0; m &= m - 1) {
        Lane& l = lanes_[std::countr_zero(m)];
        if (before(l.front(), lane->front())) lane = &l;
      }
      const Key front = lane->front();
      if (heap_.empty() || before(front, heap_.front())) {
        if (front.time > limit) return false;
        lane->pop_front();
        if (lane->empty()) {
          nonempty_ &= ~(1u << static_cast<std::uint32_t>(lane - lanes_));
        }
        --lane_live_;
        take(front, out);
        return true;
      }
    }
    if (heap_.empty() || heap_.front().time > limit) return false;
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
    take(top, out);
    return true;
  }

  /// Remove and return the earliest pending event. Precondition: !empty().
  [[nodiscard]] Event pop() {
    Event ev;
    pop_due(~SimTime{0}, ev);
    return ev;
  }

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const noexcept {
    return heap_.size() + lane_live_;
  }

 private:
  friend class EventHandle;

  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    std::uint32_t gen = 0;
    // While pending: the index of the slot's key in heap_, or, with
    // kLaneBit set, lane_pos(lane, index in the lane's ring).
    std::uint32_t pos = 0;
  };

  /// One fixed delay's keys in (time, seq) order: a ring indexed by
  /// free-running head/tail counters masked to its power-of-two size. A key
  /// whose event was cancelled has slot kDead; the front is never dead.
  struct Lane {
    std::vector<Key> ring;
    std::uint32_t mask = 0;  // ring.size() - 1 once the ring is allocated
    std::uint32_t head = 0;
    std::uint32_t tail = 0;

    [[nodiscard]] bool empty() const noexcept { return head == tail; }
    [[nodiscard]] const Key& front() const noexcept {
      return ring[head & mask];
    }
    /// Drop the front key and any dead keys behind it.
    void pop_front() noexcept {
      do {
        ++head;
      } while (head != tail && ring[head & mask].slot == kDead);
    }
  };

  static constexpr std::size_t kArity = 4;
  // A lane position packs the lane (3 bits) above a ring index of up to
  // 2^28 - 1; a heap index (24 bytes per key) stays far below kLaneBit.
  static constexpr std::uint32_t kLaneBit = 1u << 31;
  static constexpr int kLaneShift = 28;
  static constexpr std::uint32_t kRingMask = (1u << kLaneShift) - 1;
  static_assert(kMaxLanes <= (kLaneBit >> kLaneShift));
  static constexpr std::uint32_t kDead = ~std::uint32_t{0};

  static bool before(const Key& a, const Key& b) noexcept {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  static std::uint32_t lane_pos(std::uint32_t lane,
                                std::uint32_t index) noexcept {
    return kLaneBit | lane << kLaneShift | index;
  }

  // The push and pop paths are forced inline: they are the kernel's inner
  // loop, and GCC's -O2 limits stop inlining them once lanes are added. They
  // pass the caller's callback on by reference: each extra by-value hop
  // would be one more 64-byte move per event.

  /// Store `fn` in a free slot.
  [[gnu::always_inline]] std::uint32_t acquire(Callback&& fn) {
    std::uint32_t slot = 0;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
      fns_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    fns_[slot] = std::move(fn);
    return slot;
  }

  [[gnu::always_inline]] EventHandle push_heap(SimTime t, Callback&& fn) {
    const std::uint32_t slot = acquire(std::move(fn));
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Key{t, next_seq_++, slot});
    return EventHandle{this, slot, slots_[slot].gen};
  }

  [[gnu::always_inline]] EventHandle push_lane(std::uint8_t i, SimTime t,
                                               Callback&& fn) {
    const std::uint32_t slot = acquire(std::move(fn));
    Lane& lane = lanes_[i];
    if (lane.tail - lane.head == lane.ring.size()) grow(i);
    const std::uint32_t pos = lane.tail++ & lane.mask;
    lane.ring[pos] = Key{t, next_seq_++, slot};
    slots_[slot].pos = lane_pos(i, pos);
    nonempty_ |= 1u << i;
    ++lane_live_;
    return EventHandle{this, slot, slots_[slot].gen};
  }

  /// Double a full ring, compacting its live keys to the start.
  void grow(std::uint8_t i) {
    Lane& lane = lanes_[i];
    const std::size_t size = lane.ring.empty() ? 16 : lane.ring.size() * 2;
    if (size > std::size_t{kRingMask} + 1) {
      throw std::length_error("EventQueue: lane ring full");
    }
    std::vector<Key> ring(size);
    std::uint32_t n = 0;
    for (std::uint32_t c = lane.head; c != lane.tail; ++c) {
      const Key& k = lane.ring[c & lane.mask];
      if (k.slot == kDead) continue;
      slots_[k.slot].pos = lane_pos(i, n);
      ring[n++] = k;
    }
    lane.ring = std::move(ring);
    lane.mask = static_cast<std::uint32_t>(lane.ring.size()) - 1;
    lane.head = 0;
    lane.tail = n;
  }

  void place(std::size_t i, const Key& k) noexcept {
    heap_[i] = k;
    slots_[k.slot].pos = static_cast<std::uint32_t>(i);
  }

  /// Put `k` into the hole at `i` and move it up to its place.
  void sift_up(std::size_t i, const Key& k) noexcept {
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(k, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, k);
  }

  /// Put `k` into the hole at `i` and move it down to its place.
  void sift_down(std::size_t i, const Key& k) noexcept {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      const std::size_t last = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], k)) break;
      place(i, heap_[best]);
      i = best;
    }
    place(i, k);
  }

  /// Hand a popped key's event to `out` and free its slot.
  [[gnu::always_inline]] void take(const Key& k, Event& out) {
    out.time = k.time;
    out.fn = std::move(fns_[k.slot]);
    release(k.slot);
  }

  /// Return a slot, whose callback has been moved out, to the free list;
  /// its generation moves on, so every handle to the departed event goes
  /// stale.
  void release(std::uint32_t slot) {
    ++slots_[slot].gen;
    free_.push_back(slot);
  }

  [[nodiscard]] bool is_pending(std::uint32_t slot,
                                std::uint32_t gen) const noexcept {
    return slots_[slot].gen == gen;
  }

  void cancel(std::uint32_t slot, std::uint32_t gen) {
    if (slots_[slot].gen != gen) return;
    const std::uint32_t pos = slots_[slot].pos;
    if ((pos & kLaneBit) != 0) {
      const std::uint32_t l = (pos & ~kLaneBit) >> kLaneShift;
      const std::uint32_t i = pos & kRingMask;
      Lane& lane = lanes_[l];
      lane.ring[i].slot = kDead;
      if (i == (lane.head & lane.mask)) {
        lane.pop_front();
        if (lane.empty()) nonempty_ &= ~(1u << l);
      }
      --lane_live_;
    } else {
      const std::size_t i = pos;
      const Key last = heap_.back();
      heap_.pop_back();
      if (i < heap_.size()) {
        if (i > 0 && before(last, heap_[(i - 1) / kArity])) {
          sift_up(i, last);
        } else {
          sift_down(i, last);
        }
      }
    }
    // The queue is consistent before the capture dies: its destructor may
    // run arbitrary code (release captured state) that cancels or pushes.
    Callback dead = std::move(fns_[slot]);
    release(slot);
  }

  std::vector<Key> heap_;
  std::vector<Slot> slots_;  // per-slot bookkeeping, parallel to fns_
  std::vector<Callback> fns_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 0;
  Lane lanes_[kMaxLanes];
  SimDuration lane_delay_[kMaxLanes] = {};
  std::size_t lane_count_ = 0;
  std::uint32_t nonempty_ = 0;   // bit i: lanes_[i] holds a key
  std::size_t lane_live_ = 0;    // pending events across all lanes
};

inline void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancel(slot_, gen_);
}

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->is_pending(slot_, gen_);
}

}  // namespace resex::sim
