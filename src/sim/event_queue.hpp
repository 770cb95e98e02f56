#pragma once
// Priority event queue for the discrete-event kernel.
//
// Events are ordered by (time, insertion sequence) so that events scheduled
// for the same instant fire in FIFO order, which makes every simulation run
// fully deterministic.
//
// Storage is pooled, so a steady-state push/pop allocates nothing:
//  * each event's callback lives in a slot of a free-listed vector, reused
//    as soon as the event is popped;
//  * the heap is a 4-ary min-heap of flat (time, seq, slot) keys, so sifting
//    never touches the callbacks;
//  * an EventHandle is (queue, slot, generation). Popping or discarding an
//    event bumps its slot's generation, so a handle to an event that already
//    left the queue can never reach the slot's next occupant.
// Cancellation is lazy and O(1): it flags the slot, and the queue discards
// the key when it reaches the top.

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

  /// Prevent the event from firing. Safe to call multiple times.
  void cancel();

  /// True if the event is still pending (scheduled and not cancelled).
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
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    heap_.push_back(Key{t, next_seq_++, slot});
    sift_up(heap_.size() - 1);
    return EventHandle{this, slot, s.gen};
  }

  /// True if no non-cancelled events remain. Prunes cancelled heads.
  [[nodiscard]] bool empty() {
    prune();
    return heap_.empty();
  }

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() {
    prune();
    return heap_.front().time;
  }

  /// Remove and return the earliest pending event. Precondition: !empty().
  [[nodiscard]] Event pop() {
    prune();
    const Key top = remove_top();
    Event ev{top.time, std::move(slots_[top.slot].fn)};
    release(top.slot);
    return ev;
  }

  /// Number of events pushed and not yet popped (including cancelled ones
  /// still sitting in the heap).
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

 private:
  friend class EventHandle;

  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;
    bool cancelled = false;
  };

  static constexpr std::size_t kArity = 4;

  static bool before(const Key& a, const Key& b) noexcept {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  void sift_up(std::size_t i) noexcept {
    const Key k = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  void sift_down(std::size_t i) noexcept {
    const std::size_t n = heap_.size();
    const Key k = heap_[i];
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      const std::size_t last = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], k)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = k;
  }

  Key remove_top() noexcept {
    const Key top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return top;
  }

  /// Return a slot to the free list; its generation moves on, so every
  /// handle to the departed event goes stale.
  void release(std::uint32_t slot) {
    Slot& s = slots_[slot];
    ++s.gen;
    s.cancelled = false;
    free_.push_back(slot);
  }

  void prune() {
    while (!heap_.empty() && slots_[heap_.front().slot].cancelled) {
      const std::uint32_t slot = remove_top().slot;
      // Free the slot before the callback dies: its destructor may run
      // arbitrary code (release captured state) that schedules again.
      Callback dead = std::move(slots_[slot].fn);
      release(slot);
    }
  }

  [[nodiscard]] bool is_pending(std::uint32_t slot,
                                std::uint32_t gen) const noexcept {
    return slots_[slot].gen == gen && !slots_[slot].cancelled;
  }

  void cancel(std::uint32_t slot, std::uint32_t gen) noexcept {
    if (slots_[slot].gen == gen) slots_[slot].cancelled = true;
  }

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
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
