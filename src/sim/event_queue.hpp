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

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
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

/// Min-heap of timed callbacks. Not thread-safe by design: the kernel is
/// single-threaded and deterministic. Handles hold its address, so it is
/// neither copyable nor movable.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` to run at absolute simulated time `t`.
  EventHandle push(SimTime t, Callback fn) {
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
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Key{t, next_seq_++, slot});
    return EventHandle{this, slot, slots_[slot].gen};
  }

  /// True if no events are pending.
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() const noexcept {
    return heap_.front().time;
  }

  /// If the earliest pending event is due at or before `limit`, move it into
  /// `out` and return true; otherwise leave `out` alone and return false.
  bool pop_due(SimTime limit, Event& out) {
    if (heap_.empty() || heap_.front().time > limit) return false;
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
    out.time = top.time;
    out.fn = std::move(fns_[top.slot]);
    release(top.slot);
    return true;
  }

  /// Remove and return the earliest pending event. Precondition: !empty().
  [[nodiscard]] Event pop() {
    Event ev;
    pop_due(~SimTime{0}, ev);
    return ev;
  }

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

 private:
  friend class EventHandle;

  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    std::uint32_t gen = 0;
    std::uint32_t pos = 0;  // index of the slot's key in heap_ while pending
  };

  static constexpr std::size_t kArity = 4;

  static bool before(const Key& a, const Key& b) noexcept {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
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
    const std::size_t i = slots_[slot].pos;
    const Key last = heap_.back();
    heap_.pop_back();
    if (i < heap_.size()) {
      if (i > 0 && before(last, heap_[(i - 1) / kArity])) {
        sift_up(i, last);
      } else {
        sift_down(i, last);
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
};

inline void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancel(slot_, gen_);
}

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->is_pending(slot_, gen_);
}

}  // namespace resex::sim
