// A warmed plan allocates nothing: a second pass of each planning walk and
// of a dynamic-request measurement, on the scratch the first pass grew,
// must not call operator new. The scheduler runs these walks every pass
// (plan_jobs_into at step 10 and again at the start stage, a measurement
// per dynamic request), so an allocation here is one per pass or per
// reservation on the hot path.
//
// This binary replaces the global operator new to count calls, which is
// why it is a test target of its own.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "../testutil.hpp"
#include "core/backfill.hpp"
#include "core/delay_measurement.hpp"
#include "core/tail_staircase.hpp"

namespace {

bool g_counting = false;
std::size_t g_allocations = 0;

}  // namespace

// GCC sees through inlined deletes to the free() below and flags it as a
// mismatch for memory from operator new; here both sides are malloc/free.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace dbs::core {
namespace {

Time at(std::int64_t s) { return Time::from_seconds(s); }

/// The operator new calls `run` makes.
template <class F>
std::size_t allocations_of(F&& run) {
  g_allocations = 0;
  g_counting = true;
  run();
  g_counting = false;
  return g_allocations;
}

/// A busy machine and a deep queue: StartNow jobs, StartLater
/// reservations, and a tail past the reservation budget that backfills.
struct Queue {
  Queue() {
    base.subtract(at(0), at(3600), 40);
    base.subtract(at(0), at(1800), 16);
    for (std::uint64_t i = 1; i <= 40; ++i) {
      const auto cores = static_cast<CoreCount>(i % 4 == 0 ? 48 : 2 + i % 7);
      const Duration wall = Duration::minutes(static_cast<std::int64_t>(
          10 + (i * 13) % 90));
      storage.push_back(std::make_unique<rms::Job>(
          JobId{i}, test::spec("j" + std::to_string(i), cores, wall),
          test::rigid(wall), Time::epoch()));
      jobs.push_back(storage.back().get());
    }
  }

  AvailabilityProfile base{at(0), 64};
  std::vector<std::unique_ptr<rms::Job>> storage;
  std::vector<const rms::Job*> jobs;
  PlanOptions opts{at(0), /*reservation_limit=*/3, true, false};
};

TEST(PlanAllocations, WarmedWalkAllocatesNothing) {
  Queue q;
  Plan plan;
  plan_jobs_into(q.jobs, q.base, q.opts, plan);
  ASSERT_GT(plan.table.start_later_count(), 0u);
  ASSERT_GT(plan.table.start_now_count(), 0u);
  EXPECT_EQ(
      allocations_of([&] { plan_jobs_into(q.jobs, q.base, q.opts, plan); }),
      0u);
}

TEST(PlanAllocations, WarmedStaircaseWalkAllocatesNothing) {
  Queue q;
  Plan plan;
  TailStaircase staircase;
  plan_jobs_into(q.jobs, q.base, q.opts, plan, &staircase);
  ASSERT_GT(plan.table.size(), q.opts.reservation_limit + 1);
  EXPECT_EQ(allocations_of([&] {
              plan_jobs_into(q.jobs, q.base, q.opts, plan, &staircase);
            }),
            0u);
}

TEST(PlanAllocations, WarmedReplanAllocatesNothing) {
  Queue q;
  Plan plan;
  replan_all_into(q.jobs, q.base, q.opts, plan);
  ASSERT_EQ(plan.table.size(), q.jobs.size());
  EXPECT_EQ(
      allocations_of([&] { replan_all_into(q.jobs, q.base, q.opts, plan); }),
      0u);
}

TEST(PlanAllocations, WarmedMeasurementAllocatesNothing) {
  Queue q;
  const Plan baseline = plan_jobs(q.jobs, q.base, q.opts);
  const std::vector<const rms::Job*> protected_jobs =
      protected_subset(baseline.table, /*delay_depth=*/3);
  ASSERT_FALSE(protected_jobs.empty());
  const DynHold hold{8, at(0), at(2400)};
  const CoreCount idle = q.base.free_at(at(0));
  MeasureScratch scratch;
  DelayMeasurement m;
  measure_dynamic_request_into(hold, protected_jobs, baseline.table, q.base,
                               idle, q.opts, nullptr, scratch, m);
  ASSERT_TRUE(m.feasible);
  ASSERT_EQ(m.delays.size(), protected_jobs.size());
  EXPECT_EQ(allocations_of([&] {
              measure_dynamic_request_into(hold, protected_jobs,
                                           baseline.table, q.base, idle,
                                           q.opts, nullptr, scratch, m);
            }),
            0u);
}

}  // namespace
}  // namespace dbs::core
