// Delay measurement: the heart of Algorithm 2's steps 11-14.
#include "core/delay_measurement.hpp"

#include <gtest/gtest.h>

#include "../testutil.hpp"

namespace dbs::core {
namespace {

Time at(std::int64_t s) { return Time::from_seconds(s); }

struct Fixture {
  std::vector<std::unique_ptr<rms::Job>> storage;

  const rms::Job* queued(std::uint64_t id, CoreCount cores, Duration walltime) {
    storage.push_back(std::make_unique<rms::Job>(
        JobId{id}, test::spec("q" + std::to_string(id), cores, walltime),
        test::rigid(walltime), Time::epoch()));
    return storage.back().get();
  }

  const rms::Job* running(std::uint64_t id, CoreCount cores, Duration walltime,
                          Time started) {
    storage.push_back(test::running_job(
        JobId{id}, test::spec("r" + std::to_string(id), cores, walltime),
        test::rigid(walltime), started,
        cluster::Placement{{{NodeId{0}, cores}}}));
    return storage.back().get();
  }
};

TEST(MakeHold, CoversUntilWalltimeEnd) {
  Fixture f;
  const rms::Job* owner = f.running(1, 8, Duration::minutes(10), at(0));
  const rms::DynRequest req{RequestId{1}, JobId{1}, 4, at(100), 1, at(100)};
  const DynHold hold = make_hold(*owner, req, at(100));
  EXPECT_EQ(hold.extra_cores, 4);
  EXPECT_EQ(hold.from, at(100));
  EXPECT_EQ(hold.until, at(600));
}

TEST(MakeHold, NeverEmptyEvenAtWalltimeEnd) {
  Fixture f;
  const rms::Job* owner = f.running(1, 8, Duration::seconds(10), at(0));
  const rms::DynRequest req{RequestId{1}, JobId{1}, 4, at(50), 1, at(50)};
  const DynHold hold = make_hold(*owner, req, at(50));
  EXPECT_GT(hold.until, hold.from);
}

TEST(MeasureDynamicRequest, InfeasibleWithoutIdleCores) {
  Fixture f;
  const DynHold hold{4, at(0), at(600)};
  const DelayMeasurement m = measure_dynamic_request(
      hold, {}, {}, ReservationTable{}, AvailabilityProfile(at(0), 128),
      /*physical_free_now=*/3, {at(0), 5, true, false});
  EXPECT_FALSE(m.feasible);
  EXPECT_TRUE(m.delays.empty());
}

TEST(MeasureDynamicRequest, NoProtectedJobsNoDelays) {
  const DynHold hold{4, at(0), at(600)};
  const DelayMeasurement m = measure_dynamic_request(
      hold, {}, {}, ReservationTable{}, AvailabilityProfile(at(0), 128), 128,
      {at(0), 5, true, false});
  EXPECT_TRUE(m.feasible);
  EXPECT_TRUE(m.delays.empty());
  EXPECT_EQ(m.profile_after.free_at(at(0)), 124);
  EXPECT_EQ(m.profile_after.free_at(at(600)), 128);
}

TEST(MeasureDynamicRequest, DelayOfDisplacedReservation) {
  // Fig. 1 of the paper: job A (running, 2 nodes to t=8h), job B (running,
  // 2 nodes to t=4h), job C queued needing 4 nodes. A's dynamic grab of the
  // 2 idle nodes delays C by 4h. Scale: 1 node = 8 cores, 1 hour = 1 minute.
  Fixture f;
  AvailabilityProfile base(at(0), 48);
  base.subtract(at(0), at(8 * 60), 16);  // A
  base.subtract(at(0), at(4 * 60), 16);  // B
  const rms::Job* c = f.queued(3, 32, Duration::minutes(60));

  const std::vector<const rms::Job*> protected_jobs = {c};
  const PlanOptions opts{at(0), 5, true, false};
  const ReservationTable baseline = plan_jobs(protected_jobs, base, opts).table;
  ASSERT_NE(baseline.find(JobId{3}), nullptr);
  EXPECT_EQ(baseline.find(JobId{3})->start, at(4 * 60));

  // A (walltime end t=8h) grabs the 16 idle cores.
  const DynHold hold{16, at(0), at(8 * 60)};
  const DelayMeasurement m = measure_dynamic_request(
      hold, protected_jobs, protected_subset(protected_jobs, baseline, 5),
      baseline, base, /*physical_free_now=*/16, opts);
  ASSERT_TRUE(m.feasible);
  ASSERT_EQ(m.delays.size(), 1u);
  EXPECT_EQ(m.delays[0].job->id(), JobId{3});
  EXPECT_EQ(m.delays[0].delay, Duration::seconds(4 * 60));  // "4 hours"
}

TEST(MeasureDynamicRequest, StartNowJobPushedToLater) {
  Fixture f;
  AvailabilityProfile base(at(0), 16);
  base.subtract(at(0), at(600), 10);  // running job, 6 idle
  const rms::Job* q = f.queued(1, 6, Duration::minutes(5));
  const std::vector<const rms::Job*> jobs = {q};
  const PlanOptions opts{at(0), 5, true, false};
  const ReservationTable baseline = plan_jobs(jobs, base, opts).table;
  EXPECT_TRUE(baseline.find(JobId{1})->start_now);

  const DynHold hold{4, at(0), at(600)};
  const DelayMeasurement m =
      measure_dynamic_request(hold, jobs, protected_subset(jobs, baseline, 5),
                              baseline, base, 6, opts);
  ASSERT_TRUE(m.feasible);
  ASSERT_EQ(m.delays.size(), 1u);
  EXPECT_EQ(m.delays[0].delay, Duration::seconds(600));
}

TEST(MeasureDynamicRequest, UnaffectedJobHasZeroDelay) {
  Fixture f;
  AvailabilityProfile base(at(0), 128);
  const rms::Job* q = f.queued(1, 8, Duration::minutes(5));
  const std::vector<const rms::Job*> jobs = {q};
  const PlanOptions opts{at(0), 5, true, false};
  const ReservationTable baseline = plan_jobs(jobs, base, opts).table;

  const DynHold hold{4, at(0), at(600)};
  const DelayMeasurement m =
      measure_dynamic_request(hold, jobs, protected_subset(jobs, baseline, 5),
                              baseline, base, 128, opts);
  ASSERT_EQ(m.delays.size(), 1u);
  EXPECT_EQ(m.delays[0].delay, Duration::zero());
}

TEST(MeasureDynamicRequest, JobsBeyondDepthAreNotProtected) {
  Fixture f;
  AvailabilityProfile base(at(0), 16);
  base.subtract(at(0), at(600), 12);
  // Two queued full-machine jobs but delay depth of 1.
  const rms::Job* q1 = f.queued(1, 16, Duration::minutes(5));
  const rms::Job* q2 = f.queued(2, 16, Duration::minutes(5));
  const std::vector<const rms::Job*> jobs = {q1, q2};
  const PlanOptions opts{at(0), /*reservation_limit=*/1, true, false};
  const ReservationTable baseline = plan_jobs(jobs, base, opts).table;
  ASSERT_NE(baseline.find(JobId{1}), nullptr);
  ASSERT_EQ(baseline.find(JobId{2}), nullptr);  // beyond depth

  const DynHold hold{4, at(0), at(2000)};
  const DelayMeasurement m =
      measure_dynamic_request(hold, jobs, protected_subset(jobs, baseline, 1),
                              baseline, base, 4, opts);
  ASSERT_TRUE(m.feasible);
  // Only job 1's delay is measured; job 2 is invisible to fairness.
  ASSERT_EQ(m.delays.size(), 1u);
  EXPECT_EQ(m.delays[0].job->id(), JobId{1});
}

TEST(DiffPlans, NegativeDiffWhenJobSlipsEarlier) {
  // Pushing a big job back can pull a small one forward; diff_plans must
  // report the negative value rather than assert.
  Fixture f;
  const rms::Job* big = f.queued(1, 10, Duration::minutes(5));
  const rms::Job* small = f.queued(2, 8, Duration::minutes(1));
  const std::vector<const rms::Job*> jobs = {big, small};
  const PlanOptions opts{at(0), 5, true, false};

  AvailabilityProfile before(at(0), 10);
  const ReservationTable plan_before = plan_jobs(jobs, before, opts).table;
  AvailabilityProfile after(at(0), 10);
  after.subtract(at(0), at(100), 1);  // a 1-core hold
  const ReservationTable plan_after = replan_all(jobs, after, opts);

  const auto delays = diff_plans(jobs, plan_before, plan_after);
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_GT(delays[0].delay, Duration::zero());   // big job delayed
  EXPECT_LT(delays[1].delay, Duration::zero());   // small job moved earlier
}

}  // namespace
}  // namespace dbs::core
