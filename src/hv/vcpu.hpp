#pragma once
// Virtual CPU with a cap-aware run model.
//
// Guest coroutines consume CPU via `co_await vcpu.consume(work)`. Work items
// queue FIFO and run non-preemptively (a single-core guest). The wall-clock
// completion time of a work item is derived from the VCPU's SliceSchedule, so
// a capped VM's computation stretches exactly as it would under the Xen
// credit scheduler's cap. Cap (schedule) changes re-plan in-flight work.
//
// The VCPU also keeps the accounting XenStat exposes: cumulative
// scheduled-and-busy nanoseconds. Busy covers both executing work items and
// busy-polling (a poll loop burns its whole scheduled share, which is what
// the hypervisor sees for RDMA applications and what ResEx charges for).

#include <coroutine>
#include <cstdint>
#include <deque>
#include <optional>

#include "hv/schedule_model.hpp"
#include "sim/simulation.hpp"

namespace resex::hv {

class Vcpu {
 public:
  Vcpu(sim::Simulation& sim, std::uint32_t id, SliceSchedule schedule);

  Vcpu(const Vcpu&) = delete;
  Vcpu& operator=(const Vcpu&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] const SliceSchedule& schedule() const noexcept {
    return schedule_;
  }
  [[nodiscard]] sim::Simulation& simulation() const noexcept { return sim_; }

  /// Replace the run schedule (cap change). Re-plans any in-flight
  /// work item: CPU time already accumulated under the old schedule counts,
  /// the remainder completes under the new one.
  void update_schedule(const SliceSchedule& schedule);

  /// Awaitable: consume `work` nanoseconds of CPU time.
  struct ConsumeAwaiter {
    Vcpu& vcpu;
    SimDuration work;
    bool await_ready() const noexcept { return work == 0; }
    void await_suspend(std::coroutine_handle<> h) { vcpu.enqueue(work, h); }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] ConsumeAwaiter consume(SimDuration work) {
    return ConsumeAwaiter{*this, work};
  }

  /// Earliest time >= t at which this VCPU is on its PCPU (used to model
  /// when a descheduled guest can next observe a completion).
  [[nodiscard]] SimTime next_active(SimTime t) const {
    return schedule_.next_active(t);
  }

  /// Mark the VCPU as busy-polling (e.g. spinning on a CQ). Balanced calls.
  void begin_busy_poll();
  void end_busy_poll();

  /// Stop-and-copy pause: deschedule the VCPU. The in-flight work item keeps
  /// its remaining CPU need, queued items stay queued, and busy accounting
  /// stops accruing (a paused VCPU burns nothing, whatever its pollers are
  /// doing). Idempotent.
  void pause();
  /// Resume after pause(): re-plans the in-flight work item from now under
  /// the current schedule, exactly like a cap change does. Idempotent.
  void resume();
  [[nodiscard]] bool paused() const noexcept { return paused_; }

  /// Cumulative scheduled-and-busy nanoseconds up to now (XenStat's view of
  /// "CPU consumed").
  [[nodiscard]] std::uint64_t busy_ns();

  /// Work items currently queued or running (diagnostics).
  [[nodiscard]] std::size_t backlog() const noexcept {
    return queue_.size() + (active_.has_value() ? 1 : 0);
  }

 private:
  struct WorkItem {
    SimDuration remaining;
    std::coroutine_handle<> handle;
    SimTime enqueued_at = 0;  // queue-wait span start ("vcpu.wait")
  };

  void enqueue(SimDuration work, std::coroutine_handle<> h);
  void start_next();
  void plan_completion();
  void complete_active();
  void checkpoint();
  [[nodiscard]] bool is_busy() const noexcept {
    return active_.has_value() || busy_pollers_ > 0;
  }

  sim::Simulation& sim_;
  std::uint32_t id_;
  SliceSchedule schedule_;

  std::deque<WorkItem> queue_;
  std::optional<WorkItem> active_;
  SimTime work_segment_start_ = 0;
  SimTime active_since_ = 0;  // run span start ("vcpu.run")
  sim::EventHandle completion_;

  int busy_pollers_ = 0;
  bool paused_ = false;
  SimTime acct_checkpoint_ = 0;
  std::uint64_t busy_accum_ = 0;
};

}  // namespace resex::hv
