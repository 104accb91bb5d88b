// The two alternative §II-B strategies: preempting backfilled jobs to serve
// dynamic requests, and a reserved dynamic partition.
#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "apps/app_model.hpp"
#include "batch/batch_system.hpp"
#include "obs/registry.hpp"

namespace dbs::batch {
namespace {

SystemConfig config(bool preemption, CoreCount partition = 0) {
  SystemConfig c;
  c.cluster.node_count = 2;
  c.cluster.cores_per_node = 8;
  c.latency = rms::LatencyModel::zero();
  c.scheduler.allow_preemption = preemption;
  c.scheduler.dynamic_partition_cores = partition;
  c.scheduler.reservation_depth = 5;
  c.scheduler.reservation_delay_depth = 5;
  return c;
}

TEST(PreemptionIntegration, BackfilledJobSacrificedForDynRequest) {
  BatchSystem sys(config(/*preemption=*/true));
  obs::Registry registry;
  sys.set_sinks({nullptr, &registry});
  // Evolver: 8 cores, asks +8 at t=60.
  auto app = std::make_unique<apps::ScriptedApp>(
      Duration::minutes(10),
      std::vector<apps::ScriptedApp::Step>{
          {Duration::minutes(1), 8, 0, 1.0, Duration::zero()}});
  const JobId evo = sys.submit_now(test::spec("evo", 8, Duration::minutes(12)),
                                   std::move(app));
  // A waiting 16-core job forces the next small job to count as backfill.
  sys.submit_now(test::spec("waits", 16, Duration::minutes(5), "bob"),
                 test::rigid(Duration::minutes(5)));
  rms::JobSpec bf = test::spec("bf", 8, Duration::minutes(5), "carol");
  bf.preemptible = true;
  const JobId victim = sys.submit_now(bf, test::rigid(Duration::minutes(5)));
  sys.run();
  const auto& evo_rec = sys.recorder().record(evo);
  EXPECT_EQ(evo_rec.dyn_grants, 1);
  const auto& victim_rec = sys.recorder().record(victim);
  EXPECT_EQ(victim_rec.requeues, 1);
  ASSERT_TRUE(victim_rec.completed());  // eventually restarted and finished
  ASSERT_NE(registry.find_counter("server.preemptions"), nullptr);
  EXPECT_EQ(registry.find_counter("server.preemptions")->value(), 1u);
}

TEST(PreemptionIntegration, DisabledMeansRejection) {
  BatchSystem sys(config(/*preemption=*/false));
  auto app = std::make_unique<apps::ScriptedApp>(
      Duration::minutes(10),
      std::vector<apps::ScriptedApp::Step>{
          {Duration::minutes(1), 8, 0, 1.0, Duration::zero()}});
  const JobId evo = sys.submit_now(test::spec("evo", 8, Duration::minutes(12)),
                                   std::move(app));
  sys.submit_now(test::spec("waits", 16, Duration::minutes(5), "bob"),
                 test::rigid(Duration::minutes(5)));
  rms::JobSpec bf = test::spec("bf", 8, Duration::minutes(5), "carol");
  bf.preemptible = true;
  sys.submit_now(bf, test::rigid(Duration::minutes(5)));
  sys.run();
  EXPECT_EQ(sys.recorder().record(evo).dyn_grants, 0);
}

TEST(PreemptionIntegration, NonPreemptibleJobsAreSafe) {
  BatchSystem sys(config(/*preemption=*/true));
  auto app = std::make_unique<apps::ScriptedApp>(
      Duration::minutes(10),
      std::vector<apps::ScriptedApp::Step>{
          {Duration::minutes(1), 8, 0, 1.0, Duration::zero()}});
  const JobId evo = sys.submit_now(test::spec("evo", 8, Duration::minutes(12)),
                                   std::move(app));
  sys.submit_now(test::spec("waits", 16, Duration::minutes(5), "bob"),
                 test::rigid(Duration::minutes(5)));
  const JobId other = sys.submit_now(
      test::spec("bf", 8, Duration::minutes(5), "carol"),
      test::rigid(Duration::minutes(5)));
  sys.run();
  EXPECT_EQ(sys.recorder().record(evo).dyn_grants, 0);
  EXPECT_EQ(sys.recorder().record(other).requeues, 0);
}

TEST(PartitionIntegration, PartitionGuaranteesDynamicHeadroom) {
  BatchSystem sys(config(false, /*partition=*/4));
  auto app = std::make_unique<apps::ScriptedApp>(
      Duration::minutes(10),
      std::vector<apps::ScriptedApp::Step>{
          {Duration::minutes(1), 4, 0, 1.0, Duration::zero()}});
  const JobId evo = sys.submit_now(test::spec("evo", 8, Duration::minutes(12)),
                                   std::move(app));
  // A rigid stream that would otherwise fill the machine completely.
  sys.submit_now(test::spec("r1", 4, Duration::minutes(30), "bob"),
                 test::rigid(Duration::minutes(30)));
  sys.submit_now(test::spec("r2", 4, Duration::minutes(30), "carol"),
                 test::rigid(Duration::minutes(30)));
  sys.submit_now(test::spec("r3", 4, Duration::minutes(30), "dave"),
                 test::rigid(Duration::minutes(30)));
  sys.run();
  // Only 12 of 16 cores were available to static jobs (evo + r1 fit
  // exactly; r2 and r3 must wait for the evolving job to end) and the
  // 4-core partition served the dynamic request.
  EXPECT_EQ(sys.recorder().record(evo).dyn_grants, 1);
  const auto records = sys.recorder().records();
  EXPECT_EQ(*records[1].start, Time::epoch());  // r1 starts immediately
  EXPECT_GE(*records[2].start, *records[0].end);
  EXPECT_GE(*records[3].start, *records[0].end);
}

TEST(PartitionIntegration, ZeroPartitionMeansFullMachineForStatic) {
  BatchSystem sys(config(false, 0));
  sys.submit_now(test::spec("full", 16, Duration::minutes(5)),
                 test::rigid(Duration::minutes(5)));
  sys.run();
  EXPECT_NEAR(sys.recorder().record(JobId{0}).wait_time().as_seconds(), 0.0,
              1.0);
}

}  // namespace
}  // namespace dbs::batch
