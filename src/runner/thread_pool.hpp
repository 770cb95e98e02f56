#pragma once
// Fixed-size FIFO worker pool for the experiment runner (resex::runner).
//
// Trials are embarrassingly parallel: each runs a single-threaded,
// deterministic resex::sim::Simulation and writes only its own result slot.
// The pool therefore needs no work stealing — a mutex-protected FIFO queue
// is contention-free at trial granularity (each job is milliseconds to
// seconds of simulated work). parallel_for() adds the one guarantee the
// runner needs on top: an exception thrown by any iteration is rethrown in
// the caller after the batch drains, and among thrown iterations the lowest
// index wins so failure reports are themselves deterministic.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace resex::runner {

class ThreadPool {
 public:
  /// Spawns `threads` workers (coerced to at least one).
  explicit ThreadPool(std::size_t threads);

  /// Drains every submitted job, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a job. Jobs must not let exceptions escape (use parallel_for
  /// for automatic capture/rethrow). Safe to call from worker threads, but a
  /// job must never *block on* other jobs finishing — with every worker
  /// waiting, nobody is left to run the queue.
  void submit(std::function<void()> job);

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // signalled when a job is queued
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Run fn(0) .. fn(n-1) across the pool and block until all complete. Once a
/// failure is recorded, iterations that have not started yet are skipped;
/// after the batch drains, the recorded exception (lowest thrown index) is
/// rethrown in the caller. Must not be called from inside a pool job (the
/// caller blocks on the batch).
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace resex::runner
