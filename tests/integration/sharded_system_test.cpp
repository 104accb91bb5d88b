// The sharded-scheduling determinism contract, end to end: a ShardedSystem
// run at ANY worker-thread count produces byte-identical per-shard traces,
// identical merged metrics registries and identical summaries — because
// shards share nothing mutable and every merge happens in shard-index
// order. Also pins the routing invariants (each job lands on exactly one
// shard; streaming submission matches materialized submission).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "batch/sharded_system.hpp"
#include "metrics/report.hpp"
#include "obs/registry.hpp"
#include "obs/tracer.hpp"
#include "workload/source.hpp"

namespace dbs::batch {
namespace {

SystemConfig machine_config() {
  SystemConfig cfg;
  cfg.cluster.node_count = 16;  // 4 nodes x 8 cores per shard at K=4
  cfg.cluster.cores_per_node = 8;
  cfg.scheduler.reservation_depth = 4;
  return cfg;
}

ShardConfig shard_config(std::size_t threads) {
  ShardConfig sc;
  sc.shards = 4;
  sc.map = ShardMapKind::Range;
  sc.policy = core::RoutePolicy::UserHash;
  sc.threads = threads;
  return sc;
}

/// 160 jobs over 16 users, mixed sizes, every 4th evolving — enough to
/// exercise planning, backfill and the dynamic protocol on every shard.
wl::Workload mixed_workload() {
  wl::Workload w;
  for (int i = 0; i < 160; ++i) {
    wl::SubmitSpec s;
    s.at = Time::from_seconds(i * 20);
    s.spec.name = "job" + std::to_string(i);
    s.spec.cred = {"user" + std::to_string(i % 16), "grp", "", "batch", ""};
    s.spec.cores = static_cast<CoreCount>(1 << (i % 5));  // 1..16
    s.spec.walltime = Duration::minutes(40);
    s.behavior.static_runtime = Duration::minutes(5 + (i * 3) % 20);
    if (i % 4 == 0) {
      s.behavior.evolving = true;
      s.behavior.ask_cores = 4;
    }
    w.total_cores += s.spec.cores;
    w.jobs.push_back(std::move(s));
  }
  return w;
}

/// Host-timing "wall_us" lines record real wall-clock per iteration and
/// are the one legitimately nondeterministic part of a trace; every
/// byte-identity comparison excludes them (same idiom as
/// parallel_determinism_test and pipeline_golden_test).
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

struct ShardedRun {
  std::vector<std::string> traces;  ///< per-shard JSONL, byte-comparable
  std::vector<metrics::WorkloadSummary> shard_summaries;
  metrics::WorkloadSummary merged;
  std::string registry_json;
  std::vector<std::uint64_t> routed_jobs;
};

ShardedRun run_sharded(std::size_t threads, bool streaming) {
  const wl::Workload workload = mixed_workload();
  ShardedSystem sys(machine_config(), shard_config(threads));

  std::vector<std::unique_ptr<std::ostringstream>> streams;
  std::vector<std::unique_ptr<obs::Tracer>> tracers;
  for (std::size_t k = 0; k < sys.shard_count(); ++k) {
    streams.push_back(std::make_unique<std::ostringstream>());
    tracers.push_back(std::make_unique<obs::Tracer>());
    tracers.back()->attach_stream(*streams.back(), obs::TraceFormat::Jsonl);
    sys.set_shard_sinks(k, tracers.back().get());
  }

  if (streaming) {
    wl::WorkloadSource source(workload);
    sys.submit_stream(source, 64);
  } else {
    sys.submit_workload(workload);
  }
  sys.run();

  ShardedRun r;
  for (std::size_t k = 0; k < sys.shard_count(); ++k) {
    tracers[k]->close();
    r.traces.push_back(drop_lines(streams[k]->str(), "wall_us"));
    r.shard_summaries.push_back(sys.shard_summary(k));
    r.routed_jobs.push_back(sys.router().routed_jobs(k));
  }
  r.merged = sys.summary();
  obs::Registry merged_registry;
  sys.merge_registries(merged_registry);
  // The scheduler's iteration/stage wall-clock histograms ("*_us") are
  // host timing, like the trace's wall_us lines; everything else in the
  // merged registry must be byte-stable.
  r.registry_json = drop_lines(merged_registry.to_json(), "_us");
  return r;
}

void expect_summaries_equal(const metrics::WorkloadSummary& a,
                            const metrics::WorkloadSummary& b) {
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.evolving_jobs, b.evolving_jobs);
  EXPECT_EQ(a.satisfied_dyn_jobs, b.satisfied_dyn_jobs);
  EXPECT_EQ(a.granted_dyn_requests, b.granted_dyn_requests);
  EXPECT_EQ(a.backfilled_jobs, b.backfilled_jobs);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.avg_wait, b.avg_wait);
  EXPECT_EQ(a.max_wait, b.max_wait);
  EXPECT_EQ(a.avg_turnaround, b.avg_turnaround);
}

TEST(ShardedSystem, ByteIdenticalAcrossThreadCounts) {
  const ShardedRun serial = run_sharded(1, /*streaming=*/false);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const ShardedRun parallel = run_sharded(threads, /*streaming=*/false);
    ASSERT_EQ(parallel.traces.size(), serial.traces.size());
    for (std::size_t k = 0; k < serial.traces.size(); ++k) {
      EXPECT_FALSE(serial.traces[k].empty()) << k;
      EXPECT_EQ(parallel.traces[k], serial.traces[k])
          << "shard " << k << " trace diverged at " << threads << " threads";
      expect_summaries_equal(parallel.shard_summaries[k],
                             serial.shard_summaries[k]);
    }
    EXPECT_EQ(parallel.registry_json, serial.registry_json);
    expect_summaries_equal(parallel.merged, serial.merged);
    EXPECT_EQ(parallel.routed_jobs, serial.routed_jobs);
  }
}

TEST(ShardedSystem, PoolHasAtMostOneWorkerPerShard) {
  // Each fan-out has one task per shard: extra workers would only idle,
  // and a million of them would not even start.
  ShardedSystem capped(machine_config(), shard_config(1000000));
  EXPECT_EQ(capped.pool().worker_count(), 4u);
  ShardedSystem serial(machine_config(), shard_config(1));
  EXPECT_EQ(serial.pool().worker_count(), 1u);
}

TEST(ShardedSystem, EveryJobLandsOnExactlyOneShard) {
  const ShardedRun run = run_sharded(2, /*streaming=*/false);
  std::uint64_t routed = 0;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  for (std::size_t k = 0; k < run.routed_jobs.size(); ++k) {
    routed += run.routed_jobs[k];
    submitted += run.shard_summaries[k].jobs_submitted;
    completed += run.shard_summaries[k].jobs_completed;
    // User-hash over 16 users spreads across all four shards.
    EXPECT_GT(run.routed_jobs[k], 0u) << k;
  }
  EXPECT_EQ(routed, 160u);
  EXPECT_EQ(submitted, 160u);
  EXPECT_EQ(completed, 160u);
  EXPECT_EQ(run.merged.jobs_submitted, 160);
  EXPECT_EQ(run.merged.jobs_completed, 160);
}

TEST(ShardedSystem, StreamingSubmissionMatchesMaterialized) {
  const ShardedRun materialized = run_sharded(2, /*streaming=*/false);
  const ShardedRun streamed = run_sharded(2, /*streaming=*/true);
  ASSERT_EQ(streamed.traces.size(), materialized.traces.size());
  for (std::size_t k = 0; k < materialized.traces.size(); ++k)
    EXPECT_EQ(streamed.traces[k], materialized.traces[k]) << k;
  EXPECT_EQ(streamed.registry_json, materialized.registry_json);
  expect_summaries_equal(streamed.merged, materialized.merged);
}

TEST(ShardedSystem, SingleShardMatchesPlainBatchSystem) {
  // K=1 sharding is the identity: same trace and summary as an unsharded
  // BatchSystem on the whole machine.
  const wl::Workload workload = mixed_workload();

  ShardConfig sc;
  sc.shards = 1;
  ShardedSystem sharded(machine_config(), sc);
  std::ostringstream sharded_trace;
  obs::Tracer sharded_tracer;
  sharded_tracer.attach_stream(sharded_trace, obs::TraceFormat::Jsonl);
  sharded.set_shard_sinks(0, &sharded_tracer);
  sharded.submit_workload(workload);
  sharded.run();
  sharded_tracer.close();

  BatchSystem plain(machine_config());
  std::ostringstream plain_trace;
  obs::Tracer plain_tracer;
  obs::Registry plain_registry;
  plain_tracer.attach_stream(plain_trace, obs::TraceFormat::Jsonl);
  plain.set_sinks(obs::Sinks(&plain_tracer, &plain_registry));
  plain.submit_workload(workload);
  plain.run();
  plain_tracer.close();

  EXPECT_EQ(drop_lines(sharded_trace.str(), "wall_us"),
            drop_lines(plain_trace.str(), "wall_us"));
  expect_summaries_equal(sharded.summary(),
                         metrics::summarize(plain.recorder()));
}

}  // namespace
}  // namespace dbs::batch
