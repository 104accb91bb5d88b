#include "rms/job_queue.hpp"

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "common/assert.hpp"

namespace dbs::rms {
namespace {

std::unique_ptr<Job> job(std::uint64_t id, std::string user = "alice") {
  return std::make_unique<Job>(
      JobId{id}, test::spec("j" + std::to_string(id), 2, Duration::minutes(5), user),
      test::rigid(Duration::minutes(1)), Time::epoch());
}

TEST(JobQueue, AddAndLookup) {
  JobQueue q;
  q.add(job(1));
  q.add(job(2));
  EXPECT_TRUE(q.contains(JobId{1}));
  EXPECT_FALSE(q.contains(JobId{9}));
  EXPECT_EQ(q.at(JobId{2}).spec().name, "j2");
  EXPECT_EQ(q.size(), 2u);
  EXPECT_THROW((void)q.at(JobId{9}), precondition_error);
  EXPECT_THROW(q.add(job(1)), precondition_error);
}

TEST(JobQueue, QueuedInSubmissionOrder) {
  JobQueue q;
  q.add(job(1));
  q.add(job(3));
  q.add(job(7));
  const auto queued = q.queued();
  ASSERT_EQ(queued.size(), 3u);
  EXPECT_EQ(queued[0]->id(), JobId{1});
  EXPECT_EQ(queued[1]->id(), JobId{3});
  EXPECT_EQ(queued[2]->id(), JobId{7});
  // The server allocates ids sequentially; the queue relies on it.
  EXPECT_THROW(q.add(job(5)), precondition_error);
}

void finish(JobQueue& q, JobId id) {
  q.mark_started(id, Time::epoch(), cluster::Placement{{{NodeId{0}, 2}}}, false);
  q.mark_completed(id, Time::from_seconds(1));
}

TEST(JobQueue, RetireDestroysRecordAndForgetsId) {
  JobQueue q;
  q.add(job(1));
  q.add(job(2));
  EXPECT_THROW(q.retire(JobId{1}), precondition_error);  // not finished
  finish(q, JobId{1});
  q.retire(JobId{1});
  EXPECT_FALSE(q.contains(JobId{1}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.retired_count(), 1u);
  EXPECT_EQ(q.all().size(), 1u);
  EXPECT_EQ(q.queued().size(), 1u);
  EXPECT_THROW(q.retire(JobId{1}), precondition_error);  // already gone
  EXPECT_THROW((void)q.at(JobId{1}), precondition_error);
}

TEST(JobQueue, CompactionKeepsScansAndLookupsIntact) {
  // Retires most of 1,200 jobs, then checks every view still reflects
  // exactly the live tail, all() in id order included.
  constexpr std::uint64_t kJobs = 1200;
  constexpr std::uint64_t kRetire = 1100;
  JobQueue q;
  for (std::uint64_t i = 1; i <= kJobs; ++i) q.add(job(i));
  for (std::uint64_t i = 1; i <= kRetire; ++i) {
    finish(q, JobId{i});
    q.retire(JobId{i});
  }
  EXPECT_EQ(q.size(), kJobs - kRetire);
  EXPECT_EQ(q.retired_count(), kRetire);
  EXPECT_FALSE(q.contains(JobId{kRetire}));
  EXPECT_TRUE(q.contains(JobId{kRetire + 1}));
  const auto queued = q.queued();
  ASSERT_EQ(queued.size(), kJobs - kRetire);
  EXPECT_EQ(queued.front()->id(), JobId{kRetire + 1});
  EXPECT_EQ(queued.back()->id(), JobId{kJobs});
  const auto all = q.all();
  ASSERT_EQ(all.size(), kJobs - kRetire);
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(all[i]->id(), JobId{kRetire + 1 + i});
}

TEST(JobQueue, IdsStayIncreasingAfterTheNewestJobRetires) {
  JobQueue q;
  q.add(job(1));
  q.add(job(4));
  finish(q, JobId{4});
  q.retire(JobId{4});
  // 4 is gone, but ids still only grow past it.
  EXPECT_THROW(q.add(job(3)), precondition_error);
  q.add(job(5));
  ASSERT_EQ(q.all().size(), 2u);
  EXPECT_EQ(q.all()[1]->id(), JobId{5});
}

TEST(JobQueue, StateFiltering) {
  JobQueue q;
  q.add(job(1));
  q.add(job(2));
  q.mark_started(JobId{1}, Time::epoch(),
                 cluster::Placement{{{NodeId{0}, 2}}}, false);
  EXPECT_EQ(q.queued().size(), 1u);
  EXPECT_EQ(q.running().size(), 1u);
  EXPECT_EQ(q.all().size(), 2u);
  q.mark_completed(JobId{1}, Time::from_seconds(1));
  EXPECT_TRUE(q.running().empty());
}

TEST(JobQueue, DynFifoOrder) {
  JobQueue q;
  q.add(job(1));
  q.add(job(2));
  q.mark_started(JobId{1}, Time::epoch(),
                 cluster::Placement{{{NodeId{0}, 2}}}, false);
  q.mark_started(JobId{2}, Time::epoch(),
                 cluster::Placement{{{NodeId{1}, 2}}}, false);
  q.push_dyn_request({RequestId{10}, JobId{2}, 4, Time::epoch(), 1, Time::epoch()});
  q.push_dyn_request({RequestId{11}, JobId{1}, 2, Time::epoch(), 1, Time::epoch()});
  ASSERT_EQ(q.dyn_requests().size(), 2u);
  EXPECT_EQ(q.dyn_requests().front().job, JobId{2});
  EXPECT_NE(q.dyn_request_of(JobId{1}), nullptr);
  EXPECT_EQ(q.dyn_request_of(JobId{3}), nullptr);
}

TEST(JobQueue, OnePendingRequestPerJob) {
  JobQueue q;
  q.add(job(1));
  q.push_dyn_request({RequestId{1}, JobId{1}, 4, Time::epoch(), 1, Time::epoch()});
  EXPECT_THROW(
      q.push_dyn_request({RequestId{2}, JobId{1}, 4, Time::epoch(), 2, Time::epoch()}),
      precondition_error);
}

TEST(JobQueue, RemoveDynRequest) {
  JobQueue q;
  q.add(job(1));
  q.push_dyn_request({RequestId{1}, JobId{1}, 4, Time::epoch(), 1, Time::epoch()});
  EXPECT_TRUE(q.remove_dyn_request(RequestId{1}));
  EXPECT_FALSE(q.remove_dyn_request(RequestId{1}));
  EXPECT_TRUE(q.dyn_requests().empty());
}

}  // namespace
}  // namespace dbs::rms
