#include "rms/job.hpp"

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "common/assert.hpp"
#include "rms/job_queue.hpp"

namespace dbs::rms {
namespace {

std::unique_ptr<Job> make_job(JobSpec s = test::spec("j", 4, Duration::minutes(10))) {
  return std::make_unique<Job>(JobId{1}, std::move(s), test::rigid(Duration::minutes(5)),
                               Time::from_seconds(100));
}

cluster::Placement place(CoreCount cores) {
  return cluster::Placement{{{NodeId{0}, cores}}};
}

/// State transitions belong to the owning queue; each test queues its job.
struct QueuedJob {
  JobQueue queue;
  Job& job;
  const JobId id;

  explicit QueuedJob(std::unique_ptr<Job> j = make_job())
      : job(queue.add(std::move(j))), id(job.id()) {}
};

TEST(Job, ConstructionValidation) {
  JobSpec bad = test::spec("j", 0, Duration::minutes(1));
  EXPECT_THROW(Job(JobId{1}, bad, test::rigid(Duration::minutes(1)), Time::epoch()),
               precondition_error);
  bad = test::spec("j", 1, Duration::zero());
  EXPECT_THROW(Job(JobId{1}, bad, test::rigid(Duration::minutes(1)), Time::epoch()),
               precondition_error);
  bad = test::spec("j", 1, Duration::minutes(1));
  EXPECT_THROW(Job(JobId{1}, bad, nullptr, Time::epoch()), precondition_error);
  bad = test::spec("j", 1, Duration::minutes(1), "");
  EXPECT_THROW(Job(JobId{1}, bad, test::rigid(Duration::minutes(1)), Time::epoch()),
               precondition_error);
}

TEST(Job, LifecycleTransitions) {
  QueuedJob q;
  Job& job = q.job;
  EXPECT_EQ(job.state(), JobState::Queued);
  EXPECT_FALSE(job.started());

  q.queue.mark_started(q.id, Time::from_seconds(200), place(4), false);
  EXPECT_EQ(job.state(), JobState::Running);
  EXPECT_TRUE(job.is_running());
  EXPECT_EQ(job.start_time(), Time::from_seconds(200));
  EXPECT_EQ(job.walltime_end(), Time::from_seconds(200) + Duration::minutes(10));

  q.queue.mark_dynqueued(q.id);
  EXPECT_EQ(job.state(), JobState::DynQueued);
  EXPECT_TRUE(job.is_running());
  q.queue.mark_running_again(q.id);
  EXPECT_EQ(job.state(), JobState::Running);

  q.queue.mark_completed(q.id, Time::from_seconds(500));
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(job.end_time(), Time::from_seconds(500));
}

TEST(Job, InvalidTransitionsRejected) {
  QueuedJob q;
  EXPECT_THROW(q.queue.mark_dynqueued(q.id), precondition_error);
  EXPECT_THROW(q.queue.mark_completed(q.id, Time::epoch()), precondition_error);
  EXPECT_THROW((void)q.job.start_time(), precondition_error);
  q.queue.mark_started(q.id, Time::epoch(), place(4), false);
  EXPECT_THROW(q.queue.mark_started(q.id, Time::epoch(), place(4), false),
               precondition_error);
}

TEST(Job, PlacementMustMatchRequest) {
  QueuedJob q;
  EXPECT_THROW(q.queue.mark_started(q.id, Time::epoch(), place(3), false),
               precondition_error);
}

TEST(Job, ExpandAndShrink) {
  QueuedJob q;
  Job& job = q.queue.mark_started(q.id, Time::epoch(), place(4), false);
  job.expand(cluster::Placement{{{NodeId{1}, 4}}});
  EXPECT_EQ(job.allocated_cores(), 8);
  job.shrink(cluster::Placement{{{NodeId{1}, 2}}});
  EXPECT_EQ(job.allocated_cores(), 6);
  EXPECT_THROW(job.shrink(cluster::Placement{{{NodeId{2}, 1}}}),
               precondition_error);
  EXPECT_THROW(job.shrink(cluster::Placement{{{NodeId{1}, 3}}}),
               precondition_error);
}

TEST(Job, ShrinkToZeroRejected) {
  QueuedJob q;
  Job& job = q.queue.mark_started(q.id, Time::epoch(), place(4), false);
  EXPECT_THROW(job.shrink(cluster::Placement{{{NodeId{0}, 4}}}),
               precondition_error);
}

TEST(Job, RequeueResetsProgress) {
  QueuedJob q;
  Job& job = q.queue.mark_started(q.id, Time::from_seconds(10), place(4), true);
  EXPECT_TRUE(job.was_backfilled());
  q.queue.mark_requeued(q.id);
  EXPECT_EQ(job.state(), JobState::Queued);
  EXPECT_FALSE(job.started());
  EXPECT_FALSE(job.was_backfilled());
  EXPECT_EQ(job.allocated_cores(), 0);
}

TEST(Job, DynCountersAndSatisfied) {
  auto job = make_job();
  EXPECT_FALSE(job->dyn_satisfied());  // never asked
  job->count_dyn_request();
  job->count_dyn_grant();
  EXPECT_TRUE(job->dyn_satisfied());  // every request granted
  job->count_dyn_request();
  job->count_dyn_reject();
  // One final rejection disqualifies the job even alongside grants
  // (Table II "satisfied" = all dynamic requests granted).
  EXPECT_FALSE(job->dyn_satisfied());
  EXPECT_EQ(job->dyn_requests_made(), 2);
  EXPECT_EQ(job->dyn_grants(), 1);
  EXPECT_EQ(job->dyn_rejects(), 1);
}

TEST(JobState, Names) {
  EXPECT_EQ(to_string(JobState::Queued), "queued");
  EXPECT_EQ(to_string(JobState::DynQueued), "dynqueued");
  EXPECT_EQ(to_string(JobState::Completed), "completed");
}

}  // namespace
}  // namespace dbs::rms
