#pragma once
// Work-stealing-free, mutex/condvar based thread pool plus a blocking
// parallel_for used by the Monte-Carlo evaluation drivers. The evaluation
// workload is embarrassingly parallel (independent trials), so a simple
// chunked static/dynamic scheduler is both sufficient and predictable.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace vire::support {

/// Fixed-size thread pool. Tasks are std::function<void()>; submit() returns
/// a future. Destruction joins all workers after draining queued tasks that
/// were already submitted (no new tasks accepted once stopping).
class ThreadPool {
 public:
  /// `threads == 0` selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Stops the pool: already-queued tasks are drained, workers are joined,
  /// and subsequent submit() calls throw std::runtime_error. Idempotent;
  /// the destructor calls it.
  void stop();

  /// Enqueues a task; throws std::runtime_error if the pool is stopping.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Shared process-wide pool (lazily constructed, hardware-concurrency sized).
ThreadPool& global_pool();

/// Runs body(i) for i in [begin, end) across the pool, blocking until done.
/// Work is split into contiguous chunks (one per worker by default) so that
/// per-iteration state (e.g. an Rng split per index) stays cache-friendly.
/// Exceptions from the body are propagated (first one wins).
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  ThreadPool* pool = nullptr);

/// Chunked variant: body(chunk_begin, chunk_end) once per chunk.
void parallel_for_chunked(std::size_t begin, std::size_t end,
                          const std::function<void(std::size_t, std::size_t)>& body,
                          ThreadPool* pool = nullptr);

}  // namespace vire::support
