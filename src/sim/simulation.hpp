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
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return events_processed_;
  }

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

  SimTime now_ = 0;  // must precede tracer_, which captures &now_
  EventQueue queue_;
  obs::Tracer tracer_{&now_};
  obs::MetricsRegistry metrics_;
  // Detached coroutines still alive, keyed by frame address. Owned: the
  // Simulation destroys any still-suspended frames on destruction; frames
  // that run to completion remove themselves.
  std::unordered_map<void*, Task::Handle> detached_;
  std::exception_ptr task_error_{};
  std::uint64_t events_processed_ = 0;
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
