// Fixed-size worker pool with a fork-join `parallel_for` — the execution
// substrate for the sharded system's and the sharded service's per-shard
// fan-out.
//
// Design constraints (why not std::async / TBB):
//  - deterministic reductions: tasks are identified by index; callers
//    collect per-index results and reduce them in index order, so the
//    outcome never depends on which worker ran what;
//  - no dependencies: the container image only has the C++ toolchain.
//
// A pool of `threads` spawns `threads - 1` background workers; the calling
// thread runs tasks too, so ThreadPool(1) degenerates into a plain inline
// loop with zero synchronization.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dbs::exec {

class ThreadPool {
 public:
  /// `threads` >= 1 is the parallelism degree (calling thread included).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Parallelism degree, calling thread included.
  [[nodiscard]] std::size_t worker_count() const { return threads_.size() + 1; }

  /// The body of one task: `index` in [0, n).
  using Task = std::function<void(std::size_t index)>;

  /// Runs `fn(0..n-1)` across the workers and returns when every task has
  /// finished. Indices are claimed dynamically (no static partition), so
  /// uneven task costs balance out. n == 0 returns immediately.
  ///
  /// Exceptions: if one or more tasks throw, the exception of the
  /// lowest-indexed failing task is rethrown on the caller (the rest are
  /// discarded); remaining tasks still run to completion first, so partial
  /// results stay consistent.
  ///
  /// Reentrancy: calling parallel_for from inside a task of the same pool
  /// would deadlock a classic fork-join pool (the worker would wait on
  /// itself). Here the nested call is detected and executed inline,
  /// serially, on the calling thread — correct, just not extra-parallel.
  void parallel_for(std::size_t n, const Task& fn);

  /// Map convenience: returns `fn(i)` for each index, in index order. R
  /// must be default-constructible and movable.
  template <class R, class F>
  std::vector<R> parallel_map(std::size_t n, F&& fn) {
    std::vector<R> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  /// One fork-join region. Heap-allocated and shared with the workers so a
  /// late-waking worker can still safely observe an already-finished batch.
  struct Batch;

  void worker_main();
  void run_tasks(Batch& batch);
  /// Wakes every started worker with stop_ set and joins it.
  void stop_workers();

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers: a new batch is posted
  std::shared_ptr<Batch> batch_;     ///< current batch (null when idle)
  std::uint64_t batch_seq_ = 0;      ///< bumped per posted batch
  bool stop_ = false;
};

}  // namespace dbs::exec
