#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace rankjoin {
namespace {

// The pool has no wait call: its destructor drains the queue and joins
// the workers, so each test scopes its pool and checks after it.

TEST(ThreadPoolTest, RunsAllTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  std::atomic<bool> ran{false};
  {
    ThreadPool pool(0);
    EXPECT_EQ(pool.num_threads(), 1u);
    pool.Submit([&ran] { ran = true; });
  }
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&] {
        int now = in_flight.fetch_add(1) + 1;
        int prev = max_in_flight.load();
        while (now > prev &&
               !max_in_flight.compare_exchange_weak(prev, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        in_flight.fetch_sub(1);
      });
    }
  }
  // With 4 workers and 5ms tasks, at least two must have overlapped.
  EXPECT_GE(max_in_flight.load(), 2);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    // Each task sleeps briefly, so most of them are still queued when
    // the destructor runs.
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        counter.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace rankjoin
