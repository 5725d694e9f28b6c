#include "common/thread_pool.h"

#include <exception>
#include <utility>

#include "common/logging.h"

namespace rankjoin {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  work_available_.NotifyAll();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    queue_.push(std::move(task));
  }
  work_available_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!shutdown_ && queue_.empty()) work_available_.Wait(lock);
      if (queue_.empty()) return;  // shutdown and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    // A closure must not tear down the pool: minispark's retry loop
    // catches task exceptions itself, but a stray throwing closure
    // submitted directly would otherwise std::terminate the worker.
    try {
      task();
    } catch (const std::exception& e) {
      RANKJOIN_LOG(Error) << "uncaught exception in pool task (dropped): "
                          << e.what();
    } catch (...) {
      RANKJOIN_LOG(Error) << "uncaught non-std exception in pool task "
                             "(dropped)";
    }
  }
}

}  // namespace rankjoin
