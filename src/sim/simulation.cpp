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

EventHandle Simulation::schedule_keyed(SimTime t, std::uint64_t key,
                                       Callback fn, Rekey* rekey) {
  if (t < now_) {
    throw std::logic_error("Simulation::schedule_keyed: time is in the past");
  }
  return queue_.push_keyed(t, key, std::move(fn), rekey);
}

std::uint64_t Simulation::explicit_key(SimTime t, std::uint64_t counter) {
  std::erase_if(key_gaps_, [this](const KeyGap& g) { return g.time < now_; });
  std::uint64_t sub = 1;
  for (KeyGap& g : key_gaps_) {
    if (g.time == t && g.counter == counter) {
      sub = ++g.sub;
      break;
    }
  }
  if (sub == 1) key_gaps_.push_back({t, counter, 1});
  if (sub >= EventQueue::kSeqStep) {
    throw std::logic_error("Simulation::explicit_key: gap exhausted");
  }
  return counter - EventQueue::kSeqStep + sub;
}

void Simulation::release_order_log(SimTime keep_from) {
  if (--log_holds_ == 0) {
    log_.clear();
    return;
  }
  while (!log_.empty() && log_.front().time < keep_from) (void)log_.pop_front();
}

std::size_t Simulation::log_lower(SimTime t) const {
  std::size_t lo = 0;
  std::size_t hi = log_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (log_[mid].time < t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool Simulation::logged_at(SimTime t) const {
  const std::size_t i = log_lower(t);
  return i < log_.size() && log_[i].time == t;
}

std::uint64_t Simulation::counter_after(SimTime t, std::uint64_t drawn) const {
  // Entries at one time are in dispatch order, and a boundary (key
  // kOutside) follows every event of its run: the first entry at `t` whose
  // key is at least `drawn` is the first dispatch after the virtual event.
  for (std::size_t i = log_lower(t); i < log_.size(); ++i) {
    const LogEntry& e = log_[i];
    if (e.time > t || e.key >= drawn) return e.counter;
  }
  return queue_.next_seq();
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
    key_ = kOutside;
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
    key_ = ev.seq;
    if (log_holds_ != 0) log_.push_back({now_, key_, queue_.next_seq()});
    if (ev.post != nullptr) {
      ev.post(ev.ctx);
    } else {
      ev.fn();
    }
    ++events_processed_;
    ++ran;
    rethrow_pending_error();
  }
  key_ = kOutside;
  return ran;
}

bool Simulation::step() {
  const bool ran = dispatch(kForever, 1) == 1;
  log_boundary();
  return ran;
}

void Simulation::run() {
  dispatch(kForever, ~std::uint64_t{0});
  log_boundary();
}

void Simulation::run_until(SimTime t) {
  dispatch(t, ~std::uint64_t{0});
  if (t > now_) now_ = t;
  log_boundary();
}

}  // namespace resex::sim
