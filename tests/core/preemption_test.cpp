#include "core/preemption.hpp"

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "common/assert.hpp"

namespace dbs::core {
namespace {

struct Fixture {
  std::vector<std::unique_ptr<rms::Job>> storage;

  const rms::Job* running(std::uint64_t id, CoreCount cores, bool preemptible,
                          bool backfilled, Time started) {
    rms::JobSpec s = test::spec("j" + std::to_string(id), cores,
                                Duration::minutes(30));
    s.preemptible = preemptible;
    storage.push_back(test::running_job(
        JobId{id}, s, test::rigid(Duration::minutes(10)), started,
        cluster::Placement{{{NodeId{0}, cores}}}, backfilled));
    return storage.back().get();
  }

  std::vector<const rms::Job*> all() const {
    std::vector<const rms::Job*> out;
    for (const auto& j : storage) out.push_back(j.get());
    return out;
  }
};

TEST(Preemption, NoVictimsNeededWhenFreeSuffices) {
  Fixture f;
  f.running(1, 8, true, true, Time::epoch());
  EXPECT_TRUE(select_preemption_victims(f.all(), 4, 8).empty());
}

TEST(Preemption, OnlyBackfilledPreemptibleJobsAreCandidates) {
  Fixture f;
  f.running(1, 8, /*preemptible=*/false, /*backfilled=*/true, Time::epoch());
  f.running(2, 8, /*preemptible=*/true, /*backfilled=*/false, Time::epoch());
  EXPECT_TRUE(select_preemption_victims(f.all(), 4, 0).empty());
}

TEST(Preemption, MostRecentlyStartedFirst) {
  Fixture f;
  f.running(1, 8, true, true, Time::from_seconds(10));
  f.running(2, 8, true, true, Time::from_seconds(100));
  const auto victims = select_preemption_victims(f.all(), 4, 0);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], JobId{2});
}

TEST(Preemption, AccumulatesUntilEnough) {
  Fixture f;
  f.running(1, 4, true, true, Time::from_seconds(10));
  f.running(2, 4, true, true, Time::from_seconds(20));
  f.running(3, 4, true, true, Time::from_seconds(30));
  const auto victims = select_preemption_victims(f.all(), 10, 2);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], JobId{3});
  EXPECT_EQ(victims[1], JobId{2});
}

TEST(Preemption, EmptyWhenImpossible) {
  Fixture f;
  f.running(1, 4, true, true, Time::epoch());
  EXPECT_TRUE(select_preemption_victims(f.all(), 100, 0).empty());
}

TEST(Preemption, RequesterIsNeverItsOwnVictim) {
  // Regression: a backfilled preemptible evolving job must not be selected
  // to satisfy its own dynamic request.
  Fixture f;
  const rms::Job* self = f.running(1, 8, true, true, Time::from_seconds(10));
  EXPECT_TRUE(
      select_preemption_victims(f.all(), 4, 0, self->id()).empty());
  f.running(2, 8, true, true, Time::from_seconds(5));
  const auto victims = select_preemption_victims(f.all(), 4, 0, self->id());
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], JobId{2});
}

TEST(Preemption, ZeroTargetRejected) {
  Fixture f;
  EXPECT_THROW((void)select_preemption_victims(f.all(), 0, 0),
               precondition_error);
}

}  // namespace
}  // namespace dbs::core
