// Scheduler iteration mechanics through the full system façade.
#include "core/maui_scheduler.hpp"

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "batch/batch_system.hpp"

namespace dbs::core {
namespace {

using batch::BatchSystem;
using batch::SystemConfig;

SystemConfig config(std::size_t nodes = 4, std::size_t depth = 2) {
  SystemConfig c;
  c.cluster.node_count = nodes;
  c.cluster.cores_per_node = 8;
  c.scheduler.reservation_depth = depth;
  c.scheduler.reservation_delay_depth = depth;
  return c;
}

TEST(MauiScheduler, StartsJobOnSubmission) {
  BatchSystem sys(config());
  const JobId id = sys.submit_now(test::spec("a", 8, Duration::minutes(10)),
                                  test::rigid(Duration::minutes(1)));
  sys.run();
  const auto& rec = sys.recorder().record(id);
  ASSERT_TRUE(rec.completed());
  // Started at the first triggered iteration (~scheduler_delay after submit).
  EXPECT_LT(rec.wait_time(), Duration::seconds(1));
  EXPECT_GE(sys.scheduler().iterations(), 1u);
}

TEST(MauiScheduler, PriorityOrderIsQueueTime) {
  BatchSystem sys(config(1));
  // Fill the machine, then queue two jobs; the earlier submission runs first.
  sys.submit_now(test::spec("fill", 8, Duration::minutes(5)),
                 test::rigid(Duration::minutes(5)));
  sys.submit_at(Time::from_seconds(10), test::spec("first", 8, Duration::minutes(5)),
                [] { return test::rigid(Duration::minutes(1)); });
  sys.submit_at(Time::from_seconds(20), test::spec("second", 8, Duration::minutes(5)),
                [] { return test::rigid(Duration::minutes(1)); });
  sys.run();
  const auto records = sys.recorder().records();
  EXPECT_LT(*records[1].start, *records[2].start);
}

TEST(MauiScheduler, BackfillRunsSmallJobOutOfOrder) {
  BatchSystem sys(config(2));
  // 16 cores total. Running job takes 12 for 10 min.
  sys.submit_now(test::spec("big-run", 12, Duration::minutes(10)),
                 test::rigid(Duration::minutes(10)));
  // Queued: 16-core job (waits), then a 4-core 5-min job (backfills).
  sys.submit_at(Time::from_seconds(5), test::spec("waits", 16, Duration::minutes(5)),
                [] { return test::rigid(Duration::minutes(5)); });
  sys.submit_at(Time::from_seconds(10), test::spec("small", 4, Duration::minutes(5)),
                [] { return test::rigid(Duration::minutes(5)); });
  sys.run();
  const auto records = sys.recorder().records();
  EXPECT_TRUE(records[2].backfilled);
  EXPECT_LT(*records[2].start, *records[1].start);
  // The backfilled job must not delay the waiting job beyond the running
  // job's walltime end.
  EXPECT_LE(*records[1].start,
            Time::from_seconds(1) + Duration::minutes(10));
}

TEST(MauiScheduler, BackfillDisabledKeepsOrder) {
  SystemConfig c = config(2);
  c.scheduler.enable_backfill = false;
  BatchSystem sys(c);
  sys.submit_now(test::spec("big-run", 12, Duration::minutes(10)),
                 test::rigid(Duration::minutes(10)));
  sys.submit_at(Time::from_seconds(5), test::spec("waits", 16, Duration::minutes(5)),
                [] { return test::rigid(Duration::minutes(5)); });
  sys.submit_at(Time::from_seconds(10), test::spec("small", 4, Duration::minutes(5)),
                [] { return test::rigid(Duration::minutes(5)); });
  sys.run();
  const auto records = sys.recorder().records();
  EXPECT_FALSE(records[2].backfilled);
  EXPECT_GE(*records[2].start, *records[1].start);
}

TEST(MauiScheduler, DynRequestGrantedFromIdle) {
  BatchSystem sys(config());
  wl::Behavior evolving;
  evolving.static_runtime = Duration::minutes(10);
  evolving.evolving = true;
  evolving.ask_cores = 4;
  const JobId id = sys.submit_now(test::spec("evo", 8, Duration::minutes(10)),
                                  apps::make_application(evolving));
  sys.run();
  const auto& rec = sys.recorder().record(id);
  EXPECT_EQ(rec.dyn_requests, 1);
  EXPECT_EQ(rec.dyn_grants, 1);
  EXPECT_EQ(rec.cores_peak, 12);
  // PaperDet model: runtime becomes SET * 8/12.
  const Duration runtime = *rec.end - *rec.start;
  EXPECT_LT(runtime, Duration::seconds(405));
  EXPECT_GT(runtime, Duration::seconds(395));
}

TEST(MauiScheduler, DynRequestRejectedWhenMachineFull) {
  BatchSystem sys(config(1));  // 8 cores
  wl::Behavior evolving;
  evolving.static_runtime = Duration::minutes(10);
  evolving.evolving = true;
  evolving.ask_cores = 4;
  const JobId id = sys.submit_now(test::spec("evo", 8, Duration::minutes(10)),
                                  apps::make_application(evolving));
  sys.run();
  const auto& rec = sys.recorder().record(id);
  EXPECT_EQ(rec.dyn_grants, 0);
  EXPECT_EQ(rec.dyn_rejects, 2);  // first ask + the 25% retry
  const Duration runtime = *rec.end - *rec.start;
  EXPECT_GE(runtime, Duration::minutes(10));
}

TEST(MauiScheduler, RetryAtQuarterSucceedsWhenSpaceFrees) {
  // 16 cores: the evolving job (8) + a rigid job (8) that ends between the
  // 16% and 25% marks; the first ask fails, the retry succeeds.
  BatchSystem sys(config(2));
  wl::Behavior evolving;
  evolving.static_runtime = Duration::minutes(100);
  evolving.evolving = true;
  evolving.ask_cores = 4;
  const JobId evo = sys.submit_now(test::spec("evo", 8, Duration::minutes(100)),
                                   apps::make_application(evolving));
  sys.submit_now(test::spec("rigid", 8, Duration::minutes(20)),
                 test::rigid(Duration::minutes(20)));
  sys.run();
  const auto& rec = sys.recorder().record(evo);
  EXPECT_EQ(rec.dyn_requests, 2);
  EXPECT_EQ(rec.dyn_rejects, 1);
  EXPECT_EQ(rec.dyn_grants, 1);
}

TEST(MauiScheduler, ZJobDrainsTheQueue) {
  BatchSystem sys(config(2));
  // A running job occupies half the machine for 10 minutes.
  sys.submit_now(test::spec("run", 8, Duration::minutes(10)),
                 test::rigid(Duration::minutes(10)));
  // Z job needs the whole machine.
  rms::JobSpec z = test::spec("Z", 16, Duration::minutes(2), "zuser");
  z.exclusive_priority = true;
  sys.submit_at(Time::from_seconds(30), z,
                [] { return test::rigid(Duration::minutes(2)); });
  // A small job that WOULD backfill, submitted while Z waits.
  sys.submit_at(Time::from_seconds(60), test::spec("small", 4, Duration::minutes(1)),
                [] { return test::rigid(Duration::minutes(1)); });
  sys.run();
  const auto records = sys.recorder().records();
  const auto& z_rec = records[1];
  const auto& small_rec = records[2];
  // Z starts right after the running job ends; small runs only after Z
  // started (drain), despite idle cores being available earlier.
  EXPECT_GE(*small_rec.start, *z_rec.start);
}

TEST(MauiScheduler, DynamicPartitionServesOnlyDynRequests) {
  SystemConfig c = config(2);
  c.scheduler.dynamic_partition_cores = 4;
  BatchSystem sys(c);
  // 16 cores, 4 reserved for dynamic requests: static jobs see 12.
  wl::Behavior evolving;
  evolving.static_runtime = Duration::minutes(10);
  evolving.evolving = true;
  evolving.ask_cores = 4;
  const JobId evo = sys.submit_now(test::spec("evo", 8, Duration::minutes(10)),
                                   apps::make_application(evolving));
  // An 8-core rigid job: 8 cores are physically idle, but 4 of them belong
  // to the partition, so it must wait for the evolving job to finish.
  const JobId rigid =
      sys.submit_now(test::spec("rigid", 8, Duration::minutes(5), "bob"),
                     test::rigid(Duration::minutes(5)));
  sys.run();
  // The evolving job's request was served from the partition.
  EXPECT_EQ(sys.recorder().record(evo).dyn_grants, 1);
  EXPECT_GE(*sys.recorder().record(rigid).start,
            *sys.recorder().record(evo).end);
}

TEST(MauiScheduler, PollTimerIdlesOutWhenQueueEmpty) {
  BatchSystem sys(config());
  sys.submit_now(test::spec("a", 8, Duration::minutes(5)),
                 test::rigid(Duration::minutes(1)));
  sys.run();  // must terminate: no perpetual poll events
  EXPECT_TRUE(sys.simulator().idle());
}

TEST(MauiScheduler, StatsCountStartsAndReservations) {
  BatchSystem sys(config(1, 2));
  sys.submit_now(test::spec("a", 8, Duration::minutes(5)),
                 test::rigid(Duration::minutes(5)));
  sys.submit_now(test::spec("b", 8, Duration::minutes(5)),
                 test::rigid(Duration::minutes(5)));
  sys.run_until(Time::from_seconds(5));
  const IterationStats& stats = sys.scheduler().history().back();
  EXPECT_EQ(stats.started, 1u);
  EXPECT_EQ(stats.reservations, 1u);
}

}  // namespace
}  // namespace dbs::core
