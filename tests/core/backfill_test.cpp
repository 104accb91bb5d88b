// The planning engine: StartNow/StartLater classification, reservation
// depth, backfilling and the Z-job drain rule.
#include "core/backfill.hpp"

#include <gtest/gtest.h>

#include "../testutil.hpp"

namespace dbs::core {
namespace {

struct Fixture {
  std::vector<std::unique_ptr<rms::Job>> storage;

  const rms::Job* job(std::uint64_t id, CoreCount cores, Duration walltime,
                      bool exclusive = false) {
    rms::JobSpec s = test::spec("j" + std::to_string(id), cores, walltime);
    s.exclusive_priority = exclusive;
    storage.push_back(std::make_unique<rms::Job>(
        JobId{id}, s, test::rigid(walltime), Time::epoch()));
    return storage.back().get();
  }
};

Time at(std::int64_t s) { return Time::from_seconds(s); }

TEST(PlanJobs, EverythingStartsNowWhenItFits) {
  Fixture f;
  const std::vector<const rms::Job*> jobs = {
      f.job(1, 32, Duration::minutes(10)), f.job(2, 32, Duration::minutes(10))};
  const Plan plan =
      plan_jobs(jobs, AvailabilityProfile(at(0), 128), {at(0), 5, true, false});
  EXPECT_EQ(plan.table.start_now_count(), 2u);
  EXPECT_EQ(plan.profile.free_at(at(0)), 64);
}

TEST(PlanJobs, StartLaterGetsReservationAtEarliestFit) {
  Fixture f;
  const std::vector<const rms::Job*> jobs = {
      f.job(1, 100, Duration::minutes(10)),
      f.job(2, 100, Duration::minutes(5))};
  const Plan plan =
      plan_jobs(jobs, AvailabilityProfile(at(0), 128), {at(0), 5, true, false});
  ASSERT_EQ(plan.table.size(), 2u);
  const Reservation* r2 = test::reservation_of(plan.table, JobId{2});
  ASSERT_NE(r2, nullptr);
  EXPECT_FALSE(r2->start_now);
  EXPECT_EQ(r2->start, at(600));  // after job 1's walltime
}

TEST(PlanJobs, ReservationLimitCutsOff) {
  Fixture f;
  std::vector<const rms::Job*> jobs = {f.job(1, 128, Duration::minutes(10))};
  for (std::uint64_t i = 2; i <= 6; ++i)
    jobs.push_back(f.job(i, 128, Duration::minutes(10)));
  const Plan plan =
      plan_jobs(jobs, AvailabilityProfile(at(0), 128), {at(0), 2, true, false});
  // Job 1 starts now; only 2 StartLater reservations are created.
  EXPECT_EQ(plan.table.start_now_count(), 1u);
  EXPECT_EQ(plan.table.start_later_count(), 2u);
  EXPECT_EQ(test::reservation_of(plan.table, JobId{5}), nullptr);
}

TEST(PlanJobs, BackfillMarksOutOfOrderStarts) {
  Fixture f;
  const std::vector<const rms::Job*> jobs = {
      f.job(1, 100, Duration::minutes(10)),   // starts now
      f.job(2, 100, Duration::minutes(10)),   // waits (reservation at t=600)
      f.job(3, 20, Duration::minutes(5))};    // fits now -> backfill
  const Plan plan =
      plan_jobs(jobs, AvailabilityProfile(at(0), 128), {at(0), 5, true, false});
  const Reservation* r3 = test::reservation_of(plan.table, JobId{3});
  ASSERT_NE(r3, nullptr);
  EXPECT_TRUE(r3->start_now);
  EXPECT_TRUE(r3->backfilled);
  const Reservation* r1 = test::reservation_of(plan.table, JobId{1});
  EXPECT_FALSE(r1->backfilled);
}

TEST(PlanJobs, BackfillNeverDelaysReservations) {
  Fixture f;
  const std::vector<const rms::Job*> jobs = {
      f.job(1, 100, Duration::minutes(10)),
      f.job(2, 100, Duration::minutes(10)),   // reserved at t=600
      f.job(3, 28, Duration::minutes(15))};   // would overlap job 2's window
  const Plan plan =
      plan_jobs(jobs, AvailabilityProfile(at(0), 128), {at(0), 5, true, false});
  const Reservation* r3 = test::reservation_of(plan.table, JobId{3});
  ASSERT_NE(r3, nullptr);
  // 28 cores for 15 min starting now would leave only 0 free at t=600 when
  // job 2 needs 100: 128-28=100 -> exactly fits. Bump to check the boundary:
  EXPECT_EQ(r3->start, at(0));
  // Job 2's reservation still at its baseline earliest time.
  EXPECT_EQ(test::reservation_of(plan.table, JobId{2})->start, at(600));
}

TEST(PlanJobs, DisallowedBackfillSkipsJob) {
  Fixture f;
  const std::vector<const rms::Job*> jobs = {
      f.job(1, 100, Duration::minutes(10)),
      f.job(2, 100, Duration::minutes(10)),
      f.job(3, 20, Duration::minutes(5))};
  const Plan plan = plan_jobs(jobs, AvailabilityProfile(at(0), 128),
                              {at(0), 5, /*allow_backfill=*/false, false});
  EXPECT_EQ(test::reservation_of(plan.table, JobId{3}), nullptr);
}

TEST(PlanJobs, OversizedJobIsNeverPlanned) {
  Fixture f;
  const std::vector<const rms::Job*> jobs = {
      f.job(1, 200, Duration::minutes(10)),  // bigger than the machine
      f.job(2, 20, Duration::minutes(5))};
  const Plan plan =
      plan_jobs(jobs, AvailabilityProfile(at(0), 128), {at(0), 5, true, false});
  EXPECT_EQ(test::reservation_of(plan.table, JobId{1}), nullptr);
  // Job 2 is a backfill start (someone above it waits).
  ASSERT_NE(test::reservation_of(plan.table, JobId{2}), nullptr);
  EXPECT_TRUE(test::reservation_of(plan.table, JobId{2})->backfilled);
}

TEST(PlanJobs, DrainHoldsEverythingBehindExclusive) {
  Fixture f;
  const std::vector<const rms::Job*> jobs = {
      f.job(1, 128, Duration::minutes(2), /*exclusive=*/true),
      f.job(2, 8, Duration::minutes(5))};
  AvailabilityProfile base(at(0), 128);
  base.subtract(at(0), at(300), 64);  // running job until t=300
  const Plan plan = plan_jobs(jobs, base, {at(0), 5, false, /*drain=*/true});
  // Z waits for the running job; job 2 must not start before Z.
  const Reservation* z = test::reservation_of(plan.table, JobId{1});
  ASSERT_NE(z, nullptr);
  EXPECT_EQ(z->start, at(300));
  const Reservation* r2 = test::reservation_of(plan.table, JobId{2});
  ASSERT_NE(r2, nullptr);
  EXPECT_GE(r2->start, z->start);
  EXPECT_FALSE(r2->start_now);
}

TEST(PlanJobs, DrainEndsWhenExclusiveStartsNow) {
  Fixture f;
  const std::vector<const rms::Job*> jobs = {
      f.job(1, 100, Duration::minutes(2), /*exclusive=*/true),
      f.job(2, 8, Duration::minutes(5))};
  const Plan plan = plan_jobs(jobs, AvailabilityProfile(at(0), 128),
                              {at(0), 5, true, /*drain=*/true});
  EXPECT_TRUE(test::reservation_of(plan.table, JobId{1})->start_now);
  EXPECT_TRUE(test::reservation_of(plan.table, JobId{2})->start_now);
}

TEST(ReplanAll, PlansEveryJobRegardlessOfDepth) {
  Fixture f;
  std::vector<const rms::Job*> jobs;
  for (std::uint64_t i = 1; i <= 6; ++i)
    jobs.push_back(f.job(i, 128, Duration::minutes(10)));
  const ReservationTable table =
      replan_all(jobs, AvailabilityProfile(at(0), 128), {at(0), 1, true, false});
  EXPECT_EQ(table.size(), 6u);
  // Sequential full-machine jobs: each starts when the previous ends.
  for (std::uint64_t i = 1; i <= 6; ++i)
    EXPECT_EQ(test::reservation_of(table, JobId{i})->start,
              at(static_cast<int>(i - 1) * 600));
}

}  // namespace
}  // namespace dbs::core
