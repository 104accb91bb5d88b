#include "core/negotiation.hpp"

#include <gtest/gtest.h>

#include "../testutil.hpp"

namespace dbs::core {
namespace {

Time at(std::int64_t s) { return Time::from_seconds(s); }

std::unique_ptr<rms::Job> running_job(Duration walltime, Time started) {
  return test::running_job(JobId{1}, test::spec("j", 8, walltime),
                           test::rigid(walltime), started,
                           cluster::Placement{{{NodeId{0}, 8}}});
}

TEST(Negotiation, ImmediateWhenFree) {
  const AvailabilityProfile p(at(0), 32);
  const auto owner = running_job(Duration::minutes(10), at(0));
  EXPECT_EQ(estimate_availability(p, *owner, 4, at(100)), at(100));
}

TEST(Negotiation, WaitsForRunningJobToEnd) {
  AvailabilityProfile p(at(0), 32);
  p.subtract(at(0), at(500), 30);
  const auto owner = running_job(Duration::minutes(10), at(0));
  // 4 cores free continuously for the remaining walltime only after t=500.
  EXPECT_EQ(estimate_availability(p, *owner, 4, at(100)), at(500));
}

TEST(Negotiation, NulloptWhenImpossible) {
  const AvailabilityProfile p(at(0), 32);
  const auto owner = running_job(Duration::minutes(10), at(0));
  EXPECT_FALSE(estimate_availability(p, *owner, 33, at(0)).has_value());
}

TEST(Negotiation, RemainingWalltimeShrinksRequirement) {
  AvailabilityProfile p(at(0), 32);
  // 4 cores free only in the window [200, 350).
  p.subtract(at(0), at(200), 30);
  p.subtract(at(350), at(10'000), 30);
  const auto owner = running_job(Duration::seconds(300), at(0));
  // At t=100 the remaining walltime is 200s: the [200,350) window is too
  // short... remaining at t=200 is 100s, so the window fits from t=200.
  EXPECT_EQ(estimate_availability(p, *owner, 4, at(200)), at(200));
}

}  // namespace
}  // namespace dbs::core
