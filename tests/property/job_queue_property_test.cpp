// Property test for the JobQueue's per-state indexes: seeded storms of
// random transitions, driven through the queue's own methods, after each
// of which queued()/running(), their counts and queued_into() must equal a
// scan of all(). The storm mixes in restores of non-queued jobs,
// retirements and transitions the job's state forbids (which must throw
// and leave every index as it was).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../testutil.hpp"
#include "common/assert.hpp"
#include "common/rng.hpp"
#include "rms/job_queue.hpp"

namespace dbs::rms {
namespace {

constexpr CoreCount kCores = 2;

cluster::Placement placement() {
  return cluster::Placement{{{NodeId{0}, kCores}}};
}

std::unique_ptr<Job> fresh_job(std::uint64_t id) {
  return std::make_unique<Job>(
      JobId{id}, test::spec("j" + std::to_string(id), kCores,
                            Duration::minutes(5)),
      test::rigid(Duration::minutes(1)), Time::epoch());
}

/// A job restored mid-lifecycle, as a durable recovery re-adds it.
std::unique_ptr<Job> restored_job(std::uint64_t id, JobState state) {
  Job::Restore r;
  r.state = state;
  r.start = Time::epoch();
  r.placement = placement();
  if (state == JobState::Completed) r.end = Time::from_seconds(1);
  return Job::restore(JobId{id},
                      test::spec("r" + std::to_string(id), kCores,
                                 Duration::minutes(5)),
                      test::rigid(Duration::minutes(1)), Time::epoch(), r);
}

void expect_indexes_match_scan(const JobQueue& q, int step) {
  std::vector<const Job*> queued;
  std::vector<const Job*> running;
  for (const Job* job : q.all()) {
    if (job->state() == JobState::Queued) queued.push_back(job);
    if (job->is_running()) running.push_back(job);
  }
  ASSERT_EQ(q.queued(), queued) << "queued index diverged at step " << step;
  ASSERT_EQ(q.running(), running) << "running index diverged at step " << step;
  ASSERT_EQ(q.queued_count(), queued.size()) << "step " << step;
  ASSERT_EQ(q.running_count(), running.size()) << "step " << step;
  ASSERT_EQ(q.has_queued(), !queued.empty()) << "step " << step;
  ASSERT_EQ(q.has_running(), !running.empty()) << "step " << step;
  std::vector<const Job*> into{nullptr};  // stale content must be replaced
  q.queued_into(into);
  ASSERT_EQ(into, queued) << "step " << step;
}

/// A uniformly chosen live job whose state satisfies `pred`, or none.
template <typename Pred>
const Job* pick(const JobQueue& q, Rng& rng, Pred pred) {
  std::vector<const Job*> matching;
  for (const Job* job : q.all())
    if (pred(*job)) matching.push_back(job);
  if (matching.empty()) return nullptr;
  return matching[rng.next_below(matching.size())];
}

class JobQueueProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JobQueueProperty, IndexesMatchAScanAfterEveryTransition) {
  Rng rng(GetParam());
  JobQueue q;
  std::uint64_t next_id = 1;
  const Time now = Time::from_seconds(10);
  const auto is = [](JobState s) {
    return [s](const Job& j) { return j.state() == s; };
  };
  const auto running = [](const Job& j) { return j.is_running(); };
  const auto unfinished = [](const Job& j) { return !j.finished(); };
  const auto finished = [](const Job& j) { return j.finished(); };

  for (int step = 0; step < 4000; ++step) {
    const Job* job = nullptr;
    switch (rng.next_below(11)) {
      case 0:
      case 1:
        q.add(fresh_job(next_id++));
        break;
      case 2: {
        // Restores add jobs straight into any live state.
        static constexpr JobState kStates[] = {
            JobState::Running, JobState::DynQueued, JobState::Completed};
        q.add(restored_job(next_id++, kStates[rng.next_below(3)]));
        break;
      }
      case 3:
        if ((job = pick(q, rng, is(JobState::Queued))))
          q.mark_started(job->id(), now, placement(), rng.next_double() < 0.5);
        break;
      case 4:
        if ((job = pick(q, rng, is(JobState::Running))))
          q.mark_dynqueued(job->id());
        break;
      case 5:
        if ((job = pick(q, rng, is(JobState::DynQueued))))
          q.mark_running_again(job->id());
        break;
      case 6:
        if ((job = pick(q, rng, running))) q.mark_completed(job->id(), now);
        break;
      case 7:
        if ((job = pick(q, rng, unfinished))) q.mark_cancelled(job->id(), now);
        break;
      case 8:
        if ((job = pick(q, rng, running))) q.mark_requeued(job->id());
        break;
      case 9:
        if ((job = pick(q, rng, finished))) q.retire(job->id());
        break;
      default: {
        // A transition the job's state forbids: rejected, nothing moves.
        if ((job = pick(q, rng, [](const Job&) { return true; }))) {
          const JobId id = job->id();
          if (job->state() == JobState::Queued) {
            EXPECT_THROW(q.mark_completed(id, now), precondition_error);
            EXPECT_THROW(q.mark_requeued(id), precondition_error);
          } else {
            EXPECT_THROW(q.mark_started(id, now, placement(), false),
                         precondition_error);
          }
          if (job->finished()) {
            EXPECT_THROW(q.mark_cancelled(id, now), precondition_error);
          }
        }
        break;
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_indexes_match_scan(q, step));
  }
  EXPECT_GT(q.retired_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JobQueueProperty,
                         ::testing::Values(3u, 17u, 555u, 90210u));

}  // namespace
}  // namespace dbs::rms
