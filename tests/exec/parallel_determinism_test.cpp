// The parallel execution layer's central guarantee: thread count is a pure
// performance knob. Multi-replication runs (batch::ParallelRunner) must
// produce results byte-identical to their serial counterparts.
//
// Host-time exemption: the `scheduler.iteration_us` histogram records real
// wall-clock time and is never deterministic, serial or not. Comparisons
// below drop exactly those lines; everything else must match byte for
// byte.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "batch/esp_experiment.hpp"
#include "batch/parallel_runner.hpp"
#include "common/rng.hpp"
#include "obs/registry.hpp"

namespace dbs::batch {
namespace {

/// Drops every line containing `needle` (the host-time metrics/fields).
std::string drop_lines(const std::string& text, const std::string& needle) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(needle) != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

void expect_same_results(const std::vector<RunResult>& a,
                         const std::vector<RunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].label);
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].summary.jobs_completed, b[i].summary.jobs_completed);
    EXPECT_EQ(a[i].summary.satisfied_dyn_jobs, b[i].summary.satisfied_dyn_jobs);
    EXPECT_EQ(a[i].summary.granted_dyn_requests,
              b[i].summary.granted_dyn_requests);
    EXPECT_EQ(a[i].summary.backfilled_jobs, b[i].summary.backfilled_jobs);
    EXPECT_EQ(a[i].summary.makespan, b[i].summary.makespan);
    EXPECT_EQ(a[i].summary.avg_wait, b[i].summary.avg_wait);
    EXPECT_EQ(a[i].summary.max_wait, b[i].summary.max_wait);
    EXPECT_EQ(a[i].scheduler_iterations, b[i].scheduler_iterations);
    EXPECT_EQ(a[i].events, b[i].events);
    ASSERT_EQ(a[i].waits.size(), b[i].waits.size());
    for (std::size_t j = 0; j < a[i].waits.size(); ++j)
      EXPECT_EQ(a[i].waits[j].wait, b[i].waits[j].wait);
  }
}

TEST(ParallelRunner, FourJobsMatchSerialByteForByte) {
  const EspExperimentParams params;
  obs::Registry serial_registry;
  obs::Registry parallel_registry;
  const std::vector<RunResult> serial = run_esp_all(params, 1, &serial_registry);
  const std::vector<RunResult> parallel =
      run_esp_all(params, 4, &parallel_registry);

  expect_same_results(serial, parallel);
  EXPECT_EQ(drop_lines(serial_registry.to_json(), "iteration_us"),
            drop_lines(parallel_registry.to_json(), "iteration_us"));
}

TEST(ParallelRunner, MatchesLegacySerialPathAndTableTwoCounts) {
  const EspExperimentParams params;
  const std::vector<RunResult> legacy = run_esp_all(params);
  obs::Registry registry;
  const std::vector<RunResult> parallel = run_esp_all(params, 4, &registry);
  expect_same_results(legacy, parallel);

  // Table II strict "satisfied" counts (jobs whose every dynamic request
  // was granted), as documented in EXPERIMENTS.md.
  ASSERT_EQ(parallel.size(), 4u);
  EXPECT_EQ(parallel[0].summary.satisfied_dyn_jobs, 0u);   // Static
  EXPECT_EQ(parallel[1].summary.satisfied_dyn_jobs, 28u);  // Dyn-HP
  EXPECT_EQ(parallel[2].summary.satisfied_dyn_jobs, 14u);  // Dyn-500
  EXPECT_EQ(parallel[3].summary.satisfied_dyn_jobs, 10u);  // Dyn-600
}

TEST(ParallelRunner, SeedSweepIsThreadCountInvariant) {
  // Replication seeds derive from the replication index alone, so the
  // sweep's per-replication workloads (and results) cannot depend on which
  // worker ran them.
  const auto sweep = [](std::size_t jobs, obs::Registry* registry) {
    ParallelRunner runner(jobs);
    return runner.map<RunResult>(
        6,
        [](std::size_t index, obs::Registry& replication_registry) {
          EspExperimentParams params;
          params.workload.seed = replication_seed(2014, index);
          return run_esp(params, EspConfig::Dyn600, &replication_registry);
        },
        registry);
  };
  obs::Registry serial_registry;
  obs::Registry parallel_registry;
  const std::vector<RunResult> serial = sweep(1, &serial_registry);
  const std::vector<RunResult> parallel = sweep(3, &parallel_registry);
  expect_same_results(serial, parallel);
  EXPECT_EQ(drop_lines(serial_registry.to_json(), "iteration_us"),
            drop_lines(parallel_registry.to_json(), "iteration_us"));
  // Different seeds must actually produce different runs (the sweep is not
  // six copies of one experiment).
  bool any_difference = false;
  for (std::size_t i = 1; i < serial.size(); ++i)
    any_difference |= serial[i].summary.avg_wait != serial[0].summary.avg_wait;
  EXPECT_TRUE(any_difference);
}

TEST(ReplicationSeed, StableAndWellSpread) {
  // The derivation depends only on (base, index): same inputs, same seed.
  EXPECT_EQ(replication_seed(2014, 3), replication_seed(2014, 3));
  // Adjacent indices and bases give distinct, unrelated seeds.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t base : {1ULL, 2ULL, 2014ULL})
    for (std::uint64_t index = 0; index < 8; ++index)
      seeds.push_back(replication_seed(base, index));
  for (std::size_t i = 0; i < seeds.size(); ++i)
    for (std::size_t j = i + 1; j < seeds.size(); ++j)
      EXPECT_NE(seeds[i], seeds[j]) << "collision at " << i << "," << j;
}

}  // namespace
}  // namespace dbs::batch
