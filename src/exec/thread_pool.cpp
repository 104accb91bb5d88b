#include "exec/thread_pool.hpp"

#include <atomic>
#include <exception>
#include <limits>

#include "common/assert.hpp"

namespace dbs::exec {

namespace {

/// The pool the current thread is executing a task for — the reentrancy
/// guard. Plain thread_local: one level is enough because nested calls run
/// inline.
thread_local const ThreadPool* tls_pool = nullptr;

}  // namespace

struct ThreadPool::Batch {
  std::size_t n = 0;
  const Task* fn = nullptr;
  std::atomic<std::size_t> next{0};  ///< next unclaimed task index
  std::atomic<std::size_t> done{0};  ///< completed tasks
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::mutex error_mutex;
  std::exception_ptr error;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
};

ThreadPool::ThreadPool(std::size_t threads) {
  DBS_REQUIRE(threads >= 1, "thread pool needs at least one worker");
  threads_.reserve(threads - 1);
  try {
    for (std::size_t t = 1; t < threads; ++t)
      threads_.emplace_back([this] { worker_main(); });
  } catch (...) {
    // A thread failed to start (std::system_error at the process's thread
    // limit). The destructor will not run, and destroying a joinable
    // std::thread terminates: stop the workers already started first.
    stop_workers();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::run_tasks(Batch& batch) {
  // Scoped reentrancy guard: while this thread runs tasks for `batch` it is
  // marked as belonging to this pool, so a nested parallel_for on the same
  // pool is detected and inlined. Saving/restoring (instead of clearing)
  // keeps the guard correct when pools nest across each other.
  const ThreadPool* saved_pool = tls_pool;
  tls_pool = this;
  for (;;) {
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.n) break;
    try {
      (*batch.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch.error_mutex);
      if (i < batch.error_index) {
        batch.error = std::current_exception();
        batch.error_index = i;
      }
    }
    if (batch.done.fetch_add(1, std::memory_order_acq_rel) + 1 == batch.n) {
      std::lock_guard<std::mutex> lock(batch.done_mutex);
      batch.done_cv.notify_all();
    }
  }
  tls_pool = saved_pool;
}

void ThreadPool::worker_main() {
  std::uint64_t seen_seq = 0;
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || batch_seq_ != seen_seq; });
      if (stop_) return;
      seen_seq = batch_seq_;
      batch = batch_;
    }
    // A null batch means the region already finished (posted and drained
    // before this worker woke up); just go back to waiting.
    if (!batch) continue;
    run_tasks(*batch);
  }
}

void ThreadPool::parallel_for(std::size_t n, const Task& fn) {
  DBS_REQUIRE(fn != nullptr, "parallel_for needs a body");
  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->fn = &fn;
  // A nested call from inside one of our own tasks, or a trivially small /
  // single-threaded region, runs inline: the caller claims every index.
  const bool fan_out = tls_pool != this && !threads_.empty() && n > 1;
  if (fan_out) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      batch_ = batch;
      ++batch_seq_;
    }
    work_cv_.notify_all();
  }

  // The caller works too, then waits for stragglers.
  run_tasks(*batch);
  if (fan_out) {
    {
      std::unique_lock<std::mutex> lock(batch->done_mutex);
      batch->done_cv.wait(lock, [&] {
        return batch->done.load(std::memory_order_acquire) == batch->n;
      });
    }
    // Detach so a late-waking worker (holding its own shared_ptr) finds an
    // exhausted batch rather than the next region's state.
    std::lock_guard<std::mutex> lock(mutex_);
    if (batch_ == batch) batch_.reset();
  }
  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace dbs::exec
