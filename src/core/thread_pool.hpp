// Fixed-size thread pool plus deterministic parallel-for helpers.
//
// The simulator runs one trial per task (single-threaded inside a trial for
// determinism); the pool fans trials out across cores. parallel_for's
// workers claim indices one at a time, in ascending order, from a shared
// counter; results are written by index, so their layout never depends on
// scheduling. Exceptions from workers are captured and rethrown on the
// caller thread (first one wins). A task submitted directly via submit()
// that throws is captured too and rethrown by the next wait_idle() — a
// throwing task never takes down a worker or the process.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mtm {

/// A minimal fixed-size thread pool. Tasks are void() callables; submit()
/// never blocks. Destruction waits for queued tasks to finish.
class ThreadPool {
 public:
  /// Creates `threads` workers (>=1). Defaults to hardware concurrency.
  explicit ThreadPool(std::size_t threads = default_thread_count());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has completed, then rethrows the
  /// first exception any task raised since the last wait_idle() (clearing
  /// it, so the pool stays usable). Later exceptions are discarded.
  void wait_idle();

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// hardware_concurrency() clamped to >= 1.
  static std::size_t default_thread_count() noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;  // guarded by mutex_
};

/// Runs body(i) for i in [0, count) using `pool`, blocking until complete.
/// Workers claim indices in ascending order; any exception is rethrown here.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body);

/// Convenience: runs parallel_for on a transient pool with `threads` workers
/// (or serially when threads == 1, with no pool overhead).
void parallel_for(std::size_t threads, std::size_t count,
                  const std::function<void(std::size_t)>& body);

}  // namespace mtm
