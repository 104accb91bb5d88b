// Node failures: the fault-tolerance use of dynamic allocation the paper's
// introduction motivates — affected jobs acquire spare nodes and continue.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "apps/resilient.hpp"
#include "batch/batch_system.hpp"

namespace dbs::batch {
namespace {

SystemConfig config(std::size_t nodes = 4) {
  SystemConfig c;
  c.cluster.node_count = nodes;
  c.cluster.cores_per_node = 8;
  c.latency = rms::LatencyModel::zero();
  c.scheduler.reservation_depth = 5;
  c.scheduler.reservation_delay_depth = 5;
  return c;
}

TEST(FaultTolerance, RigidJobIsRequeuedAndRestarts) {
  BatchSystem sys(config());
  const JobId id = sys.submit_now(test::spec("r", 16, Duration::minutes(10)),
                                  test::rigid(Duration::minutes(5)));
  sys.simulator().schedule_at(Time::from_seconds(60), [&] {
    // Fail one of the job's nodes (node 0 holds 8 of its cores with Pack).
    sys.server().node_failure(NodeId{0});
  });
  sys.run();
  const auto& r = sys.recorder().record(id);
  EXPECT_EQ(r.requeues, 1);
  ASSERT_TRUE(r.completed());
  // The restart ran the full five minutes again on the remaining 3 nodes.
  EXPECT_GE(*r.end, Time::from_seconds(60) + Duration::minutes(5));
}

TEST(FaultTolerance, ResilientJobSurvivesAndReacquires) {
  BatchSystem sys(config());
  auto app = std::make_unique<apps::ResilientApp>(Duration::minutes(10));
  const apps::ResilientApp* papp = app.get();
  const JobId id = sys.submit_now(test::spec("ft", 16, Duration::minutes(30)),
                                  std::move(app));
  sys.simulator().schedule_at(Time::from_seconds(60), [&] {
    sys.server().node_failure(NodeId{0});
  });
  sys.run();
  const auto& r = sys.recorder().record(id);
  EXPECT_EQ(r.requeues, 0);
  EXPECT_EQ(papp->losses_survived(), 1);
  // The spare-node request succeeded (2 idle nodes available).
  EXPECT_EQ(r.dyn_grants, 1);
  ASSERT_TRUE(r.completed());
  // With an immediate replacement the total runtime stays close to 10 min
  // (only the notification/allocation gap is lost).
  EXPECT_LT(*r.end - *r.start, Duration::minutes(11));
  EXPECT_GE(*r.end - *r.start, Duration::minutes(10));
}

TEST(FaultTolerance, ResilientJobShrinksWhenNoSparesExist) {
  BatchSystem sys(config(2));  // 16 cores, no spares
  auto app = std::make_unique<apps::ResilientApp>(Duration::minutes(10));
  const JobId id = sys.submit_now(test::spec("ft", 16, Duration::minutes(40)),
                                  std::move(app));
  sys.simulator().schedule_at(Time::from_seconds(60), [&] {
    sys.server().node_failure(NodeId{0});
  });
  sys.run();
  const auto& r = sys.recorder().record(id);
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.dyn_grants, 0);
  EXPECT_EQ(r.dyn_rejects, 1);
  // 1 min at 16 cores + remaining 9x16 core-minutes on 8 cores = 19 min.
  EXPECT_NEAR((*r.end - *r.start).as_minutes(), 19.0, 0.2);
  // The lost node's cores stop counting as used at the failure.
  EXPECT_EQ(sys.recorder().used_core_seconds(*r.start, *r.end),
            16.0 * 60 + 8.0 * (*r.end - Time::from_seconds(60)).as_seconds());
}

TEST(FaultTolerance, JobLosingAllCoresIsRequeued) {
  BatchSystem sys(config(2));
  // A one-node resilient job fails with its node: nothing left to survive
  // on, so it restarts elsewhere.
  auto app = std::make_unique<apps::ResilientApp>(Duration::minutes(5));
  const JobId id = sys.submit_now(test::spec("ft", 8, Duration::minutes(30)),
                                  std::move(app));
  sys.simulator().schedule_at(Time::from_seconds(30), [&] {
    // Pack policy put the job on node 0.
    const auto& placement =
        sys.server().job(id).placement();
    sys.server().node_failure(placement.shares.front().node);
  });
  sys.run();
  const auto& r = sys.recorder().record(id);
  EXPECT_EQ(r.requeues, 1);
  ASSERT_TRUE(r.completed());
}

TEST(FaultTolerance, DownNodeIsAvoidedUntilRestored) {
  BatchSystem sys(config(2));
  sys.server().node_failure(NodeId{0});
  const JobId big = sys.submit_now(test::spec("big", 16, Duration::minutes(5)),
                                   test::rigid(Duration::minutes(5)));
  sys.simulator().schedule_at(Time::from_seconds(120), [&] {
    sys.server().restore_node(NodeId{0});
  });
  sys.run();
  const auto& r = sys.recorder().record(big);
  ASSERT_TRUE(r.completed());
  // The 16-core job could only start after the node was restored.
  EXPECT_GE(*r.start, Time::from_seconds(120));
}

TEST(FaultTolerance, SchedulerKeepsQueueMovingAroundFailure) {
  BatchSystem sys(config(4));
  for (int i = 0; i < 8; ++i)
    sys.submit_at(Time::from_seconds(i * 10),
                  test::spec("j" + std::to_string(i), 8, Duration::minutes(5),
                             "u" + std::to_string(i % 3)),
                  [] { return test::rigid(Duration::minutes(3)); });
  sys.simulator().schedule_at(Time::from_seconds(45), [&] {
    sys.server().node_failure(NodeId{1});
  });
  sys.run();
  for (const auto& r : sys.recorder().records())
    EXPECT_TRUE(r.completed()) << r.name;
  EXPECT_EQ(sys.cluster().used_cores(), 0);
}

}  // namespace
}  // namespace dbs::batch
