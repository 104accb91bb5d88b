#include "metrics/report.hpp"

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "batch/batch_system.hpp"

namespace dbs::metrics {
namespace {

batch::SystemConfig config() {
  batch::SystemConfig c;
  c.cluster.node_count = 2;
  c.cluster.cores_per_node = 8;
  return c;
}

TEST(Report, SummaryOfSimpleWorkload) {
  batch::BatchSystem sys(config());
  // Two sequential full-machine jobs of 5 minutes each.
  sys.submit_now(test::spec("a", 16, Duration::minutes(6)),
                 test::rigid(Duration::minutes(5)));
  sys.submit_now(test::spec("b", 16, Duration::minutes(6), "bob"),
                 test::rigid(Duration::minutes(5)));
  sys.run();
  const WorkloadSummary s = summarize(sys.recorder());
  EXPECT_EQ(s.jobs_submitted, 2u);
  EXPECT_EQ(s.jobs_completed, 2u);
  EXPECT_EQ(s.evolving_jobs, 0u);
  EXPECT_NEAR(s.makespan.as_minutes(), 10.0, 0.1);
  EXPECT_NEAR(s.utilization, 100.0, 1.0);
  EXPECT_NEAR(s.throughput_jobs_per_min, 0.2, 0.01);
  EXPECT_NEAR(s.avg_wait.as_minutes(), 2.5, 0.1);  // (0 + 5) / 2
  EXPECT_NEAR(s.max_wait.as_minutes(), 5.0, 0.1);
  EXPECT_NEAR(s.avg_turnaround.as_minutes(), 7.5, 0.1);
}

TEST(Report, EmptyRecorder) {
  batch::BatchSystem sys(config());
  const WorkloadSummary s = summarize(sys.recorder());
  EXPECT_EQ(s.jobs_submitted, 0u);
  EXPECT_EQ(s.jobs_completed, 0u);
  EXPECT_DOUBLE_EQ(s.utilization, 0.0);
}

TEST(Report, WaitSeriesFiltersByType) {
  batch::BatchSystem sys(config());
  rms::JobSpec a = test::spec("L-01", 8, Duration::minutes(5));
  a.type_tag = "L";
  rms::JobSpec b = test::spec("A-01", 8, Duration::minutes(5));
  b.type_tag = "A";
  sys.submit_now(a, test::rigid(Duration::minutes(1)));
  sys.submit_now(b, test::rigid(Duration::minutes(1)));
  sys.run();
  EXPECT_EQ(wait_series(sys.recorder().records()).size(), 2u);
  const auto only_l = wait_series(sys.recorder().records(), "L");
  ASSERT_EQ(only_l.size(), 1u);
  EXPECT_EQ(only_l[0].name, "L-01");
  EXPECT_EQ(only_l[0].submit_index, 0u);
}

TEST(Report, PerformanceRowFormatsTableTwo) {
  WorkloadSummary s;
  s.makespan = Duration::minutes(265) + Duration::seconds(47);
  s.satisfied_dyn_jobs = 43;
  s.utilization = 85.02;
  s.throughput_jobs_per_min = 0.96;
  s.jobs_completed = 230;
  const auto row = performance_row("Dyn-HP", s, 0.86);
  ASSERT_EQ(row.size(), performance_header().size());
  EXPECT_EQ(row[0], "Dyn-HP");
  EXPECT_EQ(row[2], "43");
  EXPECT_EQ(row[3], "85.02");
  EXPECT_EQ(row[5], "11.6");  // (0.96-0.86)/0.86
  const auto baseline_row = performance_row("Static", s, 0.0);
  EXPECT_EQ(baseline_row[5], "-");
}

}  // namespace
}  // namespace dbs::metrics
