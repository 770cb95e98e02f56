#include "sim/simulation.hpp"

#include <cassert>

namespace resex::sim {

Simulation::~Simulation() {
  for (auto& [addr, handle] : detached_) {
    (void)addr;
    handle.destroy();
  }
}

EventHandle Simulation::schedule_at(SimTime t, Callback fn) {
  if (t < now_) {
    throw std::logic_error("Simulation::schedule_at: time is in the past");
  }
  return queue_.push(t, std::move(fn));
}

void Simulation::spawn(Task task) {
  Task::Handle h = task.release();
  if (!h) throw std::logic_error("Simulation::spawn: empty task");
  auto& promise = h.promise();
  promise.is_detached = true;
  promise.detached.sim = this;
  promise.detached.registration = h.address();
  detached_.emplace(h.address(), h);
  schedule_in(0, [h] { h.resume(); });
}

namespace detail {
void notify_detached_done(const DetachedHooks& hooks,
                          std::exception_ptr error) noexcept {
  Simulation* sim = hooks.sim;
  if (sim == nullptr) return;
  sim->detached_.erase(hooks.registration);
  if (error && !sim->task_error_) sim->task_error_ = error;
}
}  // namespace detail

void Simulation::rethrow_pending_error() {
  if (task_error_) {
    auto err = std::exchange(task_error_, nullptr);
    std::rethrow_exception(err);
  }
}

std::uint64_t Simulation::dispatch(SimTime limit, std::uint64_t budget) {
  std::uint64_t ran = 0;
  while (ran < budget) {
    // A fresh Event per turn: the callback's capture dies before the next
    // event is popped.
    Event ev;
    if (!queue_.pop_due(limit, ev)) break;
    assert(ev.time >= now_);
    now_ = ev.time;
    if (ev.post != nullptr) {
      ev.post(ev.ctx);
    } else {
      ev.fn();
    }
    ++events_processed_;
    ++ran;
    rethrow_pending_error();
  }
  return ran;
}

bool Simulation::step() { return dispatch(kForever, 1) == 1; }

void Simulation::run() { dispatch(kForever, ~std::uint64_t{0}); }

void Simulation::run_until(SimTime t) {
  dispatch(t, ~std::uint64_t{0});
  if (t > now_) now_ = t;
}

}  // namespace resex::sim
