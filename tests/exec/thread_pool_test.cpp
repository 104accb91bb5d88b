#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/assert.hpp"

namespace dbs::exec {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroTasksReturnsWithoutCallingBody) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::vector<std::size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  pool.parallel_for(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ParallelMapReturnsInIndexOrder) {
  ThreadPool pool(4);
  const std::vector<int> squares =
      pool.parallel_map<int>(16, [](std::size_t i) {
        return static_cast<int>(i * i);
      });
  for (std::size_t i = 0; i < squares.size(); ++i)
    EXPECT_EQ(squares[i], static_cast<int>(i * i));
}

TEST(ThreadPool, LowestIndexExceptionWinsAndAllTasksStillRun) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 64;
  std::vector<std::atomic<int>> hits(kTasks);
  try {
    pool.parallel_for(kTasks, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      if (i == 7 || i == 40) throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7");
  }
  // Remaining tasks ran to completion before the rethrow.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesFromSingleThreadInlinePath) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(3,
                                 [&](std::size_t i) {
                                   if (i == 1) throw std::logic_error("boom");
                                 }),
               std::logic_error);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, [&](std::size_t) {
    // A classic fork-join pool would deadlock here; ours detects the
    // nesting and serializes the inner region on the outer task's thread.
    const std::thread::id outer_thread = std::this_thread::get_id();
    pool.parallel_for(4, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), outer_thread);
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPool, DistinctPoolsNestWithoutInterference) {
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> total{0};
  outer.parallel_for(4, [&](std::size_t) {
    inner.parallel_for(4, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, TasksActuallyRunConcurrently) {
  using namespace std::chrono;
  ThreadPool pool(4);
  const auto begin = steady_clock::now();
  pool.parallel_for(4, [](std::size_t) {
    std::this_thread::sleep_for(milliseconds(100));
  });
  const auto elapsed = duration_cast<milliseconds>(steady_clock::now() - begin);
  // Serial execution would take >= 400ms; allow generous scheduling slack.
  EXPECT_LT(elapsed.count(), 350);
}

TEST(ThreadPool, RejectsZeroThreadsAndNullBody) {
  EXPECT_THROW(ThreadPool(0), precondition_error);
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(1, nullptr), precondition_error);
}

// Sanitizer runtimes reserve terabytes of shadow address space, so an
// address-space cap cannot be used under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DBS_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DBS_TEST_SANITIZED 1
#endif
#endif

#ifndef DBS_TEST_SANITIZED
/// Death-test body: caps this process's address space at `cap` bytes and
/// builds a pool far larger than the cap allows. Exits 0 when the
/// constructor rethrew the thread-start failure.
[[noreturn]] void build_pool_under_cap(rlim_t cap) {
  // Unwinding past joinable workers destroys the condition variable they
  // wait on, which can block forever instead of aborting: the alarm turns
  // that hang into a failure.
  alarm(30);
  const rlimit limit{cap, cap};
  if (setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(3);
  try {
    ThreadPool pool(100000);
  } catch (const std::exception&) {
    std::_Exit(0);
  }
  std::_Exit(2);  // every worker started: the cap did not bite
}
#endif

TEST(ThreadPoolDeathTest, FailedThreadStartJoinsStartedWorkersAndRethrows) {
#ifdef DBS_TEST_SANITIZED
  GTEST_SKIP() << "address-space caps break sanitizer shadow memory";
#else
  // This process's address-space size, in pages, from /proc/self/statm.
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  if (!(statm >> pages)) GTEST_SKIP() << "no /proc/self/statm";
  const auto used = static_cast<rlim_t>(pages) *
                    static_cast<rlim_t>(sysconf(_SC_PAGESIZE));
  // 256 MiB of headroom runs out of thread stacks a few dozen workers in.
  // The constructor must join the workers it started before rethrowing.
  EXPECT_EXIT(build_pool_under_cap(used + (rlim_t{256} << 20)),
              ::testing::ExitedWithCode(0), "");
#endif
}

TEST(ThreadPool, ReusableAcrossManyRegions) {
  ThreadPool pool(3);
  std::size_t total = 0;
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(10, [&](std::size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    total += sum.load();
  }
  EXPECT_EQ(total, 50u * 45u);
}

}  // namespace
}  // namespace dbs::exec
