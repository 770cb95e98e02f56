#include "runner/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace resex::runner {
namespace {

TEST(ThreadPool, StartupAndImmediateShutdown) {
  for (const std::size_t n : {0u, 1u, 2u, 8u}) {
    ThreadPool pool(n);
    EXPECT_GE(pool.size(), 1u);
    if (n > 0) {
      EXPECT_EQ(pool.size(), n);
    }
  }  // destructor joins with an empty queue
}

TEST(ThreadPool, ExecutesEverySubmittedJob) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // the destructor drains the queue
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DestructorDrainsPendingJobs) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // the destructor must run everything still queued
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, NoDeadlockUnderContention) {
  // Many producers hammering a small pool with tiny jobs. Guarded by the
  // test timeout: a deadlock fails the run.
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    std::vector<std::thread> producers;
    producers.reserve(4);
    for (int t = 0; t < 4; ++t) {
      producers.emplace_back([&pool, &count] {
        for (int i = 0; i < 500; ++i) {
          pool.submit(
              [&count] { count.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    }
    for (auto& p : producers) p.join();
  }
  EXPECT_EQ(count.load(), 2000);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, hits.size(), [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsANoOp) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelFor, PropagatesException) {
  ThreadPool pool(4);
  try {
    parallel_for(pool, 16, [](std::size_t i) {
      if (i == 5) throw std::runtime_error("boom at 5");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 5");
  }
  // The pool must still be usable afterwards.
  std::atomic<int> count{0};
  parallel_for(pool, 8, [&count](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 8);
}

TEST(ParallelFor, AllIterationsFailingStillTerminates) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 64,
                            [](std::size_t i) {
                              throw std::runtime_error(
                                  "fail " + std::to_string(i));
                            }),
               std::runtime_error);
}

TEST(ParallelFor, SerialPoolMatchesParallelPool) {
  auto compute = [](ThreadPool& pool) {
    std::vector<std::uint64_t> out(64);
    parallel_for(pool, out.size(), [&out](std::size_t i) {
      std::uint64_t v = 0x9E3779B97F4A7C15ULL * (i + 1);
      for (int k = 0; k < 1000; ++k) v = v * 6364136223846793005ULL + i;
      out[i] = v;
    });
    return out;
  };
  ThreadPool serial(1);
  ThreadPool parallel(8);
  EXPECT_EQ(compute(serial), compute(parallel));
}

}  // namespace
}  // namespace resex::runner
