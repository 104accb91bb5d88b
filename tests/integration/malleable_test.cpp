// Malleable jobs (§VI future work): scheduler-initiated shrinking serves
// dynamic requests without losing any progress.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "apps/app_model.hpp"
#include "apps/resilient.hpp"
#include "batch/batch_system.hpp"
#include "obs/registry.hpp"

namespace dbs::batch {
namespace {

SystemConfig config(bool steal) {
  SystemConfig c;
  c.cluster.node_count = 2;
  c.cluster.cores_per_node = 8;
  c.latency = rms::LatencyModel::zero();
  c.scheduler.allow_malleable_steal = steal;
  c.scheduler.reservation_depth = 5;
  c.scheduler.reservation_delay_depth = 5;
  return c;
}

TEST(MalleableIntegration, StealServesDynamicRequest) {
  BatchSystem sys(config(true));
  obs::Registry registry;
  sys.set_sinks({nullptr, &registry});
  // The evolver (8 cores) asks +4 at t=60 on a full machine.
  auto evolver_app = std::make_unique<apps::ScriptedApp>(
      Duration::minutes(10),
      std::vector<apps::ScriptedApp::Step>{
          {Duration::minutes(1), 4, 0, 1.0, Duration::zero()}});
  const JobId evolver = sys.submit_now(
      test::spec("evo", 8, Duration::minutes(12)), std::move(evolver_app));
  // The malleable neighbour (8 cores, may shrink to 2) adapts.
  rms::JobSpec malleable = test::spec("mall", 8, Duration::hours(2), "bob");
  malleable.malleable_min = 2;
  const JobId victim = sys.submit_now(
      malleable, std::make_unique<apps::ResilientApp>(Duration::minutes(10)));
  sys.run();

  EXPECT_EQ(sys.recorder().record(evolver).dyn_grants, 1);
  const auto& victim_rec = sys.recorder().record(victim);
  EXPECT_EQ(victim_rec.malleable_shrinks, 1);
  ASSERT_NE(registry.find_counter("server.malleable_shrinks"), nullptr);
  EXPECT_EQ(registry.find_counter("server.malleable_shrinks")->value(), 1u);
  EXPECT_EQ(victim_rec.requeues, 0);  // no progress lost
  ASSERT_TRUE(victim_rec.completed());
  // The victim carried 10x8=80 core-minutes of work: 1 min at 8 cores,
  // then shrunk by the 4 needed cores -> 72 core-min at 4 cores = 18 min.
  EXPECT_NEAR((*victim_rec.end - *victim_rec.start).as_minutes(), 19.0, 0.2);
}

TEST(MalleableIntegration, DisabledMeansRejection) {
  BatchSystem sys(config(false));
  auto evolver_app = std::make_unique<apps::ScriptedApp>(
      Duration::minutes(10),
      std::vector<apps::ScriptedApp::Step>{
          {Duration::minutes(1), 8, 0, 1.0, Duration::zero()}});
  const JobId evolver = sys.submit_now(
      test::spec("evo", 8, Duration::minutes(12)), std::move(evolver_app));
  rms::JobSpec malleable = test::spec("mall", 8, Duration::hours(2), "bob");
  malleable.malleable_min = 2;
  sys.submit_now(malleable,
                 std::make_unique<apps::ResilientApp>(Duration::minutes(10)));
  sys.run();
  EXPECT_EQ(sys.recorder().record(evolver).dyn_grants, 0);
}

TEST(MalleableIntegration, NeverShrinksBelowMinimum) {
  BatchSystem sys(config(true));
  auto evolver_app = std::make_unique<apps::ScriptedApp>(
      Duration::minutes(10),
      std::vector<apps::ScriptedApp::Step>{
          {Duration::minutes(1), 8, 0, 1.0, Duration::zero()}});
  const JobId evolver = sys.submit_now(
      test::spec("evo", 8, Duration::minutes(12)), std::move(evolver_app));
  // Only 4 cores of slack exist: the +8 request cannot be served.
  rms::JobSpec malleable = test::spec("mall", 8, Duration::hours(2), "bob");
  malleable.malleable_min = 4;
  const JobId victim = sys.submit_now(
      malleable, std::make_unique<apps::ResilientApp>(Duration::minutes(10)));
  sys.run();
  EXPECT_EQ(sys.recorder().record(evolver).dyn_grants, 0);
  EXPECT_EQ(sys.recorder().record(victim).malleable_shrinks, 0);
}

TEST(MalleableIntegration, ServerValidatesShrink) {
  BatchSystem sys(config(true));
  const JobId rigid = sys.submit_now(test::spec("r", 8, Duration::minutes(10)),
                                     test::rigid(Duration::minutes(5)));
  sys.run_until(Time::from_seconds(5));
  EXPECT_THROW(sys.server().shrink_job(rigid, 2), precondition_error);
}

}  // namespace
}  // namespace dbs::batch
