// Fixed-size worker pool.
//
// Used by the Indexer's parallel sampling and placement planning. Storage
// nodes never use it: each does all of its work on its own dispatch
// thread. Tasks are type-erased std::function<void()>; submit() returns a
// std::future for the task's result.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/thread_annotations.h"

namespace mendel {

class ThreadPool {
 public:
  // Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  // (at least 1).
  explicit ThreadPool(unsigned threads = 0);

  // Drains remaining tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // Enqueue a callable; returns a future for its result. Safe to call from
  // any thread, including from within a task.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>>
      MENDEL_EXCLUDES(mu_) {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mu_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  // Runs fn(i) for i in [0, n) across the pool and blocks until all
  // iterations complete. Exceptions from iterations propagate (first one).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop() MENDEL_EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_ MENDEL_GUARDED_BY(mu_);
  bool stop_ MENDEL_GUARDED_BY(mu_) = false;
};

}  // namespace mendel
