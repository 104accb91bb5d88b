#include "core/malleable.hpp"

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "common/assert.hpp"

namespace dbs::core {
namespace {

struct Fixture {
  std::vector<std::unique_ptr<rms::Job>> storage;

  const rms::Job* running(std::uint64_t id, CoreCount cores,
                          CoreCount malleable_min) {
    rms::JobSpec s = test::spec("j" + std::to_string(id), cores,
                                Duration::minutes(30));
    s.malleable_min = malleable_min;
    storage.push_back(test::running_job(
        JobId{id}, s, test::rigid(Duration::minutes(10)), Time::epoch(),
        cluster::Placement{{{NodeId{0}, cores}}}));
    return storage.back().get();
  }

  std::vector<const rms::Job*> all() const {
    std::vector<const rms::Job*> out;
    for (const auto& j : storage) out.push_back(j.get());
    return out;
  }
};

TEST(MalleableSteal, NothingNeededWhenFreeSuffices) {
  Fixture f;
  f.running(1, 16, 8);
  EXPECT_TRUE(plan_malleable_steal(f.all(), 4, 8).empty());
}

TEST(MalleableSteal, ShrinksLargestSlackFirst) {
  Fixture f;
  f.running(1, 16, 12);  // slack 4
  f.running(2, 16, 4);   // slack 12
  const auto plan = plan_malleable_steal(f.all(), 8, 0);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].job, JobId{2});
  EXPECT_EQ(plan[0].cores, 8);
}

TEST(MalleableSteal, TakesOnlyWhatIsNeeded) {
  Fixture f;
  f.running(1, 16, 4);  // slack 12
  const auto plan = plan_malleable_steal(f.all(), 10, 4);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].cores, 6);  // 4 free + 6 stolen = 10
}

TEST(MalleableSteal, CombinesMultipleVictims) {
  Fixture f;
  f.running(1, 8, 4);   // slack 4
  f.running(2, 8, 4);   // slack 4
  f.running(3, 8, 8);   // slack 0 (never shrunk)
  const auto plan = plan_malleable_steal(f.all(), 7, 0);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].cores + plan[1].cores, 7);
}

TEST(MalleableSteal, RigidJobsUntouchable) {
  Fixture f;
  f.running(1, 16, 0);  // not malleable
  EXPECT_TRUE(plan_malleable_steal(f.all(), 4, 0).empty());
}

TEST(MalleableSteal, EmptyWhenTargetUnreachable) {
  Fixture f;
  f.running(1, 8, 6);  // slack 2
  EXPECT_TRUE(plan_malleable_steal(f.all(), 8, 0).empty());
}

TEST(MalleableSteal, ExcludesTheRequester) {
  Fixture f;
  const rms::Job* self = f.running(1, 16, 4);
  EXPECT_TRUE(plan_malleable_steal(f.all(), 4, 0, self->id()).empty());
}

TEST(MalleableSteal, ZeroTargetRejected) {
  Fixture f;
  EXPECT_THROW((void)plan_malleable_steal(f.all(), 0, 0), precondition_error);
}

}  // namespace
}  // namespace dbs::core
