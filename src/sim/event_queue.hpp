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
// Fixed-delay lanes sit beside the heap and hold posts: callback-free
// events, a plain `void(void*)` function and its argument, that cannot be
// cancelled. add_lane(d) declares a delay; post(now, d, fn, ctx) with a
// declared d appends (now + d, seq, fn, ctx) to that delay's lane, a
// power-of-two ring, in O(1); an undeclared d goes to the heap instead. As
// long as `now` never decreases (it is the caller's clock), every post
// appended to one lane has a time and a seq no smaller than the one before
// it, so a lane is already sorted by (time, seq). pop_due takes the earliest
// of the heap top and the lane fronts by (time, seq). seq is drawn from one
// counter at push or post time, by heap and lanes alike, so where an event
// waits cannot change when it fires: the global order is exactly the order
// of a heap holding every event.
//
// Explicit order keys. Every push and post draws its seq from the counter in
// steps of kSeqStep, so the values strictly between two drawn seqs are free.
// push_keyed() puts a heap entry under a caller-chosen seq, typically one of
// those free values: at equal time it sorts after every event drawn before
// the gap and before every event drawn after it, without drawing a seq
// itself. Packet trains (fabric::Channel, DESIGN.md §5) place the events
// they re-materialise this way. An entry pushed with a Rekey holds a lower
// bound: when it reaches the top of the heap, its owner names the exact key
// and it waits again under that one, in the same slot, so its handle stays
// valid.
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/ring.hpp"
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

/// A post's function: run as `fn(ctx)`.
using PostFn = void (*)(void*);

/// Owner of a lower-bound heap entry (EventQueue::push_keyed with a rekey).
class Rekey {
 public:
  /// The entry's exact seq, no smaller than its bound. Called once, when the
  /// entry first reaches the heap top with time `t`: every event with a
  /// smaller key has been popped, and the queue must not be changed here.
  virtual std::uint64_t exact_key(SimTime t) = 0;

 protected:
  ~Rekey() = default;
};

/// A popped event, owned by the caller: its time and order key, and either
/// a heap event's callback or a post's function and argument (then `fn` is
/// empty).
struct Event {
  SimTime time = 0;
  std::uint64_t seq = 0;
  Callback fn;
  PostFn post = nullptr;
  void* ctx = nullptr;
};

/// Min-heap of timed callbacks, with FIFO lanes of posts for declared fixed
/// delays. Not thread-safe by design: the kernel is single-threaded and
/// deterministic. Handles hold its address, so it is neither copyable nor
/// movable.
class EventQueue {
 public:
  /// Most fixed delays one queue gives a lane; later declarations are
  /// ignored and their posts go to the heap.
  static constexpr std::size_t kMaxLanes = 8;
  /// Distance between two consecutive drawn seqs; the values in between are
  /// explicit keys (push_keyed).
  static constexpr std::uint64_t kSeqStep = std::uint64_t{1} << 16;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` to run at absolute simulated time `t`, on the heap.
  EventHandle push(SimTime t, Callback fn) {
    return push_heap(t, std::move(fn));
  }

  /// Schedule `fn` at `t` under the explicit order key `seq`, drawing no
  /// seq. With a `rekey`, `seq` is a lower bound that the owner replaces
  /// when the entry reaches the top (see Rekey).
  EventHandle push_keyed(SimTime t, std::uint64_t seq, Callback fn,
                         Rekey* rekey = nullptr) {
    const std::uint32_t slot = acquire(std::move(fn));
    slots_[slot].rekey = rekey;
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Key{t, seq, slot});
    return EventHandle{this, slot, slots_[slot].gen};
  }

  /// The seq the next push or post draws.
  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }

  /// Give posts of delay `delay` their own FIFO lane. Declaring a delay
  /// twice, or more than kMaxLanes delays, changes nothing.
  void add_lane(SimDuration delay) {
    for (std::size_t i = 0; i < lane_count_; ++i) {
      if (lane_delay_[i] == delay) return;
    }
    if (lane_count_ == kMaxLanes) return;
    lane_delay_[lane_count_++] = delay;
  }

  /// Schedule `fn(ctx)` at `now + delay`, not cancellable: on the delay's
  /// lane if it has one, else on the heap. Precondition: `now` never
  /// decreases from one call to the next (it is the owner's clock), which
  /// keeps every lane sorted.
  [[gnu::always_inline]] void post(SimTime now, SimDuration delay, PostFn fn,
                                   void* ctx) {
    for (std::size_t i = 0; i < lane_count_; ++i) {
      if (lane_delay_[i] == delay) {
        lanes_[i].push_back(Post{now + delay, next_seq_, fn, ctx});
        next_seq_ += kSeqStep;
        nonempty_ |= 1u << i;
        ++posted_;
        return;
      }
    }
    push_heap(now + delay, [fn, ctx] { fn(ctx); });
  }

  /// True if no events are pending.
  [[nodiscard]] bool empty() const noexcept {
    return heap_.empty() && posted_ == 0;
  }

  /// Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() const noexcept {
    SimTime best = heap_.empty() ? ~SimTime{0} : heap_.front().time;
    for (std::uint32_t m = nonempty_; m != 0; m &= m - 1) {
      const SimTime t = lanes_[std::countr_zero(m)].front().time;
      if (t < best) best = t;
    }
    return best;
  }

  /// If the earliest pending event is due at or before `limit`, move it into
  /// `out` and return true; otherwise leave `out` alone and return false.
  [[gnu::always_inline]] bool pop_due(SimTime limit, Event& out) {
    for (;;) {
      if (nonempty_ != 0) {
        // The earliest lane front, then the heap top if it is earlier still.
        std::uint32_t m = nonempty_;
        std::uint32_t best = std::countr_zero(m);
        for (m &= m - 1; m != 0; m &= m - 1) {
          const auto i = static_cast<std::uint32_t>(std::countr_zero(m));
          if (before(lanes_[i].front(), lanes_[best].front())) best = i;
        }
        Ring<Post>& lane = lanes_[best];
        const Post& front = lane.front();
        if (heap_.empty() || before(front, heap_.front())) {
          if (front.time > limit) return false;
          out.time = front.time;
          out.seq = front.seq;
          out.post = front.fn;
          out.ctx = front.ctx;
          (void)lane.pop_front();
          if (lane.empty()) nonempty_ &= ~(1u << best);
          --posted_;
          return true;
        }
      }
      if (heap_.empty() || heap_.front().time > limit) return false;
      const Key top = heap_.front();
      if (slots_[top.slot].rekey != nullptr) [[unlikely]] {
        rekey_top();
        continue;
      }
      const Key last = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) sift_down(0, last);
      out.time = top.time;
      out.seq = top.seq;
      out.fn = std::move(fns_[top.slot]);
      out.post = nullptr;
      release(top.slot);
      return true;
    }
  }

  /// Remove and return the earliest pending event, a post wrapped as its
  /// callback. Precondition: !empty().
  [[nodiscard]] Event pop() {
    Event ev;
    pop_due(~SimTime{0}, ev);
    if (ev.post != nullptr) {
      ev.fn = [fn = ev.post, ctx = ev.ctx] { fn(ctx); };
      ev.post = nullptr;
    }
    return ev;
  }

  /// Number of pending events.
  [[nodiscard]] std::size_t size() const noexcept {
    return heap_.size() + posted_;
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
    std::uint32_t pos = 0;  // while pending: the index of its key in heap_
    Rekey* rekey = nullptr;  // while its key is a lower bound
  };
  struct Post {
    SimTime time;
    std::uint64_t seq;
    PostFn fn;
    void* ctx;
  };

  static constexpr std::size_t kArity = 4;

  template <typename A, typename B>
  static bool before(const A& a, const B& b) noexcept {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
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
    sift_up(heap_.size() - 1, Key{t, next_seq_, slot});
    next_seq_ += kSeqStep;
    return EventHandle{this, slot, slots_[slot].gen};
  }

  /// The heap top holds a lower bound: ask its owner for the exact key and
  /// move the entry down to it.
  [[gnu::noinline]] void rekey_top() {
    Key top = heap_.front();
    Rekey* owner = std::exchange(slots_[top.slot].rekey, nullptr);
    top.seq = owner->exact_key(top.time);
    sift_down(0, top);
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
    slots_[slot].rekey = nullptr;
    release(slot);
  }

  std::vector<Key> heap_;
  std::vector<Slot> slots_;  // per-slot bookkeeping, parallel to fns_
  std::vector<Callback> fns_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 0;
  Ring<Post> lanes_[kMaxLanes];
  SimDuration lane_delay_[kMaxLanes] = {};
  std::size_t lane_count_ = 0;
  std::uint32_t nonempty_ = 0;  // bit i: lanes_[i] holds a post
  std::size_t posted_ = 0;      // posts pending across all lanes
};

inline void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancel(slot_, gen_);
}

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->is_pending(slot_, gen_);
}

}  // namespace resex::sim
