#pragma once
// The discrete-event simulation kernel.
//
// A Simulation owns a clock and an event queue, and acts as the executor for
// detached coroutine Tasks (simulation "processes"). Everything is
// single-threaded and deterministic: two runs with the same configuration and
// seeds produce identical event orders and results.

#include <coroutine>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/ring.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace resex::sim {

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  /// Current simulated time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule a callback at absolute time `t` (must be >= now()).
  EventHandle schedule_at(SimTime t, Callback fn);

  /// Schedule a callback `dt` from now.
  EventHandle schedule_in(SimDuration dt, Callback fn) {
    return schedule_at(now_ + dt, std::move(fn));
  }

  /// Declare a delay that many posts are made with (a link's propagation or
  /// MTU serialization time). Posts `dt` from now with a declared `dt` skip
  /// the heap for a FIFO lane, in the same order.
  void declare_fixed_delay(SimDuration dt) { queue_.add_lane(dt); }

  /// Run `fn(ctx)` `dt` from now: the packet path's event, with no capture
  /// to store and no handle, so it cannot be cancelled. It fires in the
  /// same (time, seq) order as a callback scheduled at the same point.
  /// Left to the compiler's inlining on purpose: forcing it inline grows
  /// every packet-path caller and measured slower end to end.
  void post_in(SimDuration dt, PostFn fn, void* ctx) {
    queue_.post(now_, dt, fn, ctx);
  }

  /// Detach a Task onto this simulation; it starts running at the current
  /// time (before the next event is processed if called from inside one,
  /// immediately upon run() otherwise).
  void spawn(Task task);

  /// Run events until the queue drains. Throws the first exception that
  /// escaped a detached task (the simulation stops at that point).
  void run();

  /// Run events with time <= `t`; afterwards now() == t (even if the queue
  /// drained earlier). Pending later events remain queued.
  void run_until(SimTime t);

  /// Run `dt` more simulated time.
  void run_for(SimDuration dt) { run_until(now_ + dt); }

  /// Process a single event. Returns false if the queue is empty.
  bool step();

  /// Number of events processed so far (for perf tests / sanity checks).
  /// Not an invariant of a model: on a lossless star a packet train
  /// (DESIGN.md §5) stands in for most per-packet channel events, so the
  /// `# runner:` events of lossless benches fall by design. A traced run
  /// opens no train and keeps every one, which is also why tracing now
  /// costs more (`obs.trace_overhead_pct`).
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return events_processed_;
  }

  // --- same-instant order, for events kept out of the queue ----------------
  // A packet train computes channel events instead of queueing them. To
  // place such a virtual event against real ones at one instant, it needs
  // the seq its poster would have drawn, and it re-materialises events
  // under explicit keys (EventQueue::push_keyed).

  /// Order key of the event being dispatched: its seq, or an explicit key.
  /// kOutside between dispatches, where every event at now() has run.
  static constexpr std::uint64_t kOutside = ~std::uint64_t{0};
  [[nodiscard]] std::uint64_t order_key() const noexcept { return key_; }

  /// The seq the next schedule or post draws: a virtual post made now would
  /// sort before every event drawn from here on.
  [[nodiscard]] std::uint64_t seq_counter() const noexcept {
    return queue_.next_seq();
  }

  /// Schedule `fn` at `t` (>= now()) under the explicit order key `key`; see
  /// EventQueue::push_keyed.
  EventHandle schedule_keyed(SimTime t, std::uint64_t key, Callback fn,
                             Rekey* rekey = nullptr);

  /// The explicit key of an event drawn while the counter stood at `counter`
  /// (a seq_counter() value) and due at `t`: between the seqs drawn before
  /// and after it, and after every explicit key handed out before for the
  /// same (t, counter).
  [[nodiscard]] std::uint64_t explicit_key(SimTime t, std::uint64_t counter);

  /// The dispatch log: while held, every dispatched event appends (time,
  /// key, seq counter at its start), and each run()/run_until()/step() ends
  /// with a boundary entry (its time, kOutside, counter) for the draws made
  /// between runs. Holds nest; the last release empties the log, a partial
  /// one drops entries before `keep_from`.
  void hold_order_log() { ++log_holds_; }
  void release_order_log(SimTime keep_from);
  [[nodiscard]] std::size_t order_log_size() const noexcept {
    return log_.size();
  }
  /// True if some logged event was dispatched at exactly `t`.
  [[nodiscard]] bool logged_at(SimTime t) const;
  /// The seq counter a virtual event at `t`, drawn while the counter stood
  /// at `drawn`, saw when it ran: the counter at the start of the first
  /// logged dispatch after it (at a later time, or at `t` with a key >=
  /// `drawn`), or the live counter if there is none yet.
  [[nodiscard]] std::uint64_t counter_after(SimTime t,
                                            std::uint64_t drawn) const;

  /// Number of detached tasks still alive.
  [[nodiscard]] std::size_t live_tasks() const noexcept {
    return detached_.size();
  }

  /// Sim-time event tracer for this simulation. Disabled (and free) unless a
  /// driver calls `tracer().enable(...)`; instrumented components record
  /// through the RESEX_TRACE_* macros against this instance.
  [[nodiscard]] obs::Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const obs::Tracer& tracer() const noexcept { return tracer_; }

  /// Metrics registry owned by this simulation; components register named
  /// counters/gauges/histograms here, drivers snapshot it.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

  // --- awaitables -----------------------------------------------------------

  /// `co_await sim.delay(dt)`: resume after `dt` simulated time.
  struct DelayAwaiter {
    Simulation& sim;
    SimDuration dt;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim.schedule_in(dt, [h] { h.resume(); });
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] DelayAwaiter delay(SimDuration dt) { return {*this, dt}; }

  /// `co_await sim.at(t)`: resume at absolute time `t` (>= now()).
  [[nodiscard]] DelayAwaiter at(SimTime t) {
    return {*this, t > now_ ? t - now_ : 0};
  }

 private:
  friend void detail::notify_detached_done(const detail::DetachedHooks&,
                                           std::exception_ptr) noexcept;

  void rethrow_pending_error();

  static constexpr SimTime kForever = ~SimTime{0};

  /// The one dispatch loop behind run(), run_until() and step(): run events
  /// due at or before `limit`, at most `budget` of them, and return how many
  /// ran.
  std::uint64_t dispatch(SimTime limit, std::uint64_t budget);

  struct LogEntry {
    SimTime time;
    std::uint64_t key;
    std::uint64_t counter;
  };
  /// First log index with time >= t.
  [[nodiscard]] std::size_t log_lower(SimTime t) const;
  void log_boundary() {
    if (log_holds_ != 0) log_.push_back({now_, kOutside, queue_.next_seq()});
  }

  SimTime now_ = 0;  // must precede tracer_, which captures &now_
  std::uint64_t key_ = kOutside;
  std::uint32_t log_holds_ = 0;
  EventQueue queue_;
  obs::Tracer tracer_{&now_};
  obs::MetricsRegistry metrics_;
  // Detached coroutines still alive, keyed by frame address. Owned: the
  // Simulation destroys any still-suspended frames on destruction; frames
  // that run to completion remove themselves.
  std::unordered_map<void*, Task::Handle> detached_;
  std::exception_ptr task_error_{};
  std::uint64_t events_processed_ = 0;
  Ring<LogEntry> log_;
  // Explicit keys handed out per (time, counter), pruned of past times.
  struct KeyGap {
    SimTime time;
    std::uint64_t counter;
    std::uint64_t sub;
  };
  std::vector<KeyGap> key_gaps_;
};

/// Broadcast condition: coroutines wait on it, `fire()` wakes all waiters at
/// the current simulated time (in wait order). Reusable after firing.
class Trigger {
 public:
  explicit Trigger(Simulation& sim) : sim_(&sim) {}

  struct Awaiter {
    Trigger& trig;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      trig.waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] Awaiter wait() { return Awaiter{*this}; }

  /// Wake every current waiter. Waiters added during the wake-up round are
  /// not woken until the next fire().
  void fire() {
    std::vector<std::coroutine_handle<>> batch;
    batch.swap(waiters_);
    for (auto h : batch) {
      sim_->schedule_in(0, [h] { h.resume(); });
    }
  }

  [[nodiscard]] std::size_t waiter_count() const noexcept {
    return waiters_.size();
  }

 private:
  Simulation* sim_;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace resex::sim
