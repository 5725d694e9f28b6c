#ifndef RANKJOIN_COMMON_THREAD_POOL_H_
#define RANKJOIN_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace rankjoin {

/// A fixed-size worker pool executing closures FIFO.
///
/// This is the physical execution backend of minispark: one pool per
/// Context, each dataflow task is one closure. The pool is intentionally
/// simple — no work stealing, no priorities — because tasks are
/// partition-granular and long-running.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding work and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks.
  void Submit(std::function<void()> task);

  size_t num_threads() const { return threads_.size(); }

 private:
  void WorkerLoop();

  Mutex mutex_;
  CondVar work_available_;
  std::queue<std::function<void()>> queue_ GUARDED_BY(mutex_);
  std::vector<std::thread> threads_;
  bool shutdown_ GUARDED_BY(mutex_) = false;
};

}  // namespace rankjoin

#endif  // RANKJOIN_COMMON_THREAD_POOL_H_
