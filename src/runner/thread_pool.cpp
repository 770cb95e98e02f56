#include "runner/thread_pool.hpp"

#include <exception>
#include <utility>

namespace resex::runner {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  work_cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain the queue even when stopping, so the destructor's contract
      // ("every submitted job finishes") holds.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;

  struct Batch {
    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t remaining = 0;
    std::size_t error_index = 0;
    std::exception_ptr error;
  } batch;
  batch.remaining = n;
  batch.error_index = n;

  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([&batch, &fn, i] {
      bool skip;
      {
        std::lock_guard<std::mutex> lock(batch.mu);
        skip = batch.error != nullptr;
      }
      if (!skip) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(batch.mu);
          if (batch.error == nullptr || i < batch.error_index) {
            batch.error = std::current_exception();
            batch.error_index = i;
          }
        }
      }
      std::lock_guard<std::mutex> lock(batch.mu);
      if (--batch.remaining == 0) batch.done_cv.notify_all();
    });
  }

  std::unique_lock<std::mutex> lock(batch.mu);
  batch.done_cv.wait(lock, [&batch] { return batch.remaining == 0; });
  if (batch.error != nullptr) std::rethrow_exception(batch.error);
}

}  // namespace resex::runner
