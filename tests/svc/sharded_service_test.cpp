// Sharded always-on service guarantees:
//
//   * ticking all K shard loops concurrently writes byte-identical
//     per-shard WAL files to ticking them serially (the determinism
//     contract, extended to the durable path);
//   * a clean stop + reopen recovers every shard in parallel and
//     continues to the uninterrupted result, with the router's
//     least-loaded ledger reseeded from the per-shard WAL submit totals;
//   * cancels are rejected on the global queue (JobIds are per-shard).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "batch/sharded_system.hpp"
#include "common/assert.hpp"
#include "metrics/report.hpp"
#include "svc/ingest.hpp"
#include "svc/sharded_service.hpp"
#include "svc/state_store.hpp"

namespace dbs::svc {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kShards = 4;

batch::SystemConfig durable_machine() {
  batch::SystemConfig cfg;
  cfg.cluster.node_count = 16;  // 4 nodes x 8 cores per shard
  cfg.cluster.cores_per_node = 8;
  cfg.scheduler.reservation_depth = 4;
  cfg.latency = rms::LatencyModel::zero();
  cfg.streaming_metrics = true;
  cfg.retire_finished_jobs = true;
  return cfg;
}

batch::ShardConfig shard_config(std::size_t threads) {
  batch::ShardConfig sc;
  sc.shards = kShards;
  sc.map = batch::ShardMapKind::Range;
  sc.policy = core::RoutePolicy::LeastLoaded;
  sc.threads = threads;
  return sc;
}

wl::Workload mixed_workload(int jobs = 120) {
  wl::Workload w;
  for (int i = 0; i < jobs; ++i) {
    wl::SubmitSpec s;
    s.at = Time::from_seconds(i * 120);
    s.spec.name = "job" + std::to_string(i);
    s.spec.cred = {"user" + std::to_string(i % 11), "grp", "", "batch", ""};
    s.spec.cores = static_cast<CoreCount>(1 + (i * 3) % 12);
    s.spec.walltime = Duration::minutes(45);
    s.behavior.static_runtime = Duration::minutes(4 + (i * 7) % 25);
    w.total_cores += s.spec.cores;
    w.jobs.push_back(std::move(s));
  }
  return w;
}

ServiceConfig service_config(const std::string& dir,
                             std::uint64_t max_ticks = 0) {
  ServiceConfig scfg;
  scfg.state_dir = dir;
  scfg.snapshot_every = 16;
  scfg.keep_snapshots = 0;
  scfg.tick = Duration::seconds(3600);
  scfg.max_ticks = max_ticks;
  return scfg;
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    dir_ = fs::temp_directory_path() /
           ("dbs_sharded_svc_test_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~TempDir() { fs::remove_all(dir_); }
  [[nodiscard]] std::string sub(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  fs::path dir_;
};

struct ServiceRun {
  metrics::WorkloadSummary summary;
  bool recovered = false;
  std::uint64_t wal_ingest = 0;
  std::uint64_t wal_decisions = 0;
  std::vector<std::uint64_t> routed_cores;
  std::vector<std::uint64_t> routed_jobs;
};

/// Pre-fills the global queue with the whole workload (minus whatever a
/// recovered WAL already holds — routing is deterministic in global ticket
/// order, so the first `skip` records are exactly the WAL-held ones) and
/// runs the service to completion or max_ticks. The deterministic feed is
/// what makes WAL bytes comparable across runs: a live producer thread
/// races wall-clock tick boundaries and batches differently every time.
ServiceRun run_service(const wl::Workload& workload, const std::string& dir,
                       std::size_t threads, std::uint64_t max_ticks = 0) {
  batch::ShardedSystem system(durable_machine(), shard_config(threads));
  IngestQueue ingest;
  ShardedService service(system, ingest, service_config(dir, max_ticks));

  ServiceRun r;
  r.recovered = service.open();
  const std::uint64_t skip = service.wal_ingest_total();
  std::uint64_t yielded = 0;
  for (const auto& s : workload.jobs) {
    if (++yielded <= skip) continue;
    ingest.submit(s.at, s.spec, s.behavior);
  }
  ingest.close();
  service.run();

  r.summary = system.summary();
  r.wal_ingest = service.wal_ingest_total();
  r.wal_decisions = service.wal_decision_total();
  r.routed_cores = system.router().routed_cores();
  for (std::size_t k = 0; k < kShards; ++k)
    r.routed_jobs.push_back(system.router().routed_jobs(k));
  return r;
}

void expect_summaries_equal(const metrics::WorkloadSummary& a,
                            const metrics::WorkloadSummary& b) {
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.avg_wait, b.avg_wait);
  EXPECT_EQ(a.max_wait, b.max_wait);
  EXPECT_EQ(a.avg_turnaround, b.avg_turnaround);
}

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(ShardedService, ParallelTicksWriteByteIdenticalShardWals) {
  const wl::Workload workload = mixed_workload();
  TempDir dir("wal_identity");
  const ServiceRun serial = run_service(workload, dir.sub("serial"), 1);
  const ServiceRun parallel = run_service(workload, dir.sub("parallel"), 4);

  EXPECT_EQ(serial.wal_ingest, workload.jobs.size());
  EXPECT_EQ(parallel.wal_ingest, serial.wal_ingest);
  EXPECT_EQ(parallel.wal_decisions, serial.wal_decisions);
  for (std::size_t k = 0; k < kShards; ++k) {
    const auto a = read_file(wal_path(shard_state_dir(dir.sub("serial"), k)));
    const auto b =
        read_file(wal_path(shard_state_dir(dir.sub("parallel"), k)));
    EXPECT_FALSE(a.empty()) << k;
    EXPECT_EQ(a, b) << "shard " << k << " WAL diverged across thread counts";
  }
  expect_summaries_equal(parallel.summary, serial.summary);
  EXPECT_EQ(parallel.routed_jobs, serial.routed_jobs);
}

TEST(ShardedService, StopAndReopenContinuesToTheSameResult) {
  const wl::Workload workload = mixed_workload();
  TempDir dir("reopen");
  const ServiceRun uninterrupted =
      run_service(workload, dir.sub("base"), 2);
  ASSERT_FALSE(uninterrupted.recovered);
  EXPECT_EQ(uninterrupted.summary.jobs_completed,
            static_cast<std::int64_t>(workload.jobs.size()));

  // Stop after 3 driver cycles, then reopen the same directories: every
  // shard recovers (snapshot + WAL tail) in parallel and the run finishes
  // to the uninterrupted result.
  const ServiceRun stopped = run_service(workload, dir.sub("split"), 2, 3);
  ASSERT_LT(stopped.wal_decisions, uninterrupted.wal_decisions)
      << "max_ticks did not stop mid-run; shrink it";
  const ServiceRun resumed = run_service(workload, dir.sub("split"), 2);
  EXPECT_TRUE(resumed.recovered);
  expect_summaries_equal(resumed.summary, uninterrupted.summary);
  EXPECT_EQ(resumed.wal_ingest, uninterrupted.wal_ingest);
  EXPECT_EQ(resumed.wal_decisions, uninterrupted.wal_decisions);
  for (std::size_t k = 0; k < kShards; ++k) {
    // Per-shard decision streams across the shutdown must match the
    // uninterrupted run frame for frame (the same contract the unsharded
    // ServiceLoop reopen test pins, here once per shard).
    const WalContents base_wal =
        read_wal(wal_path(shard_state_dir(dir.sub("base"), k)));
    const WalContents split_wal =
        read_wal(wal_path(shard_state_dir(dir.sub("split"), k)));
    ASSERT_EQ(split_wal.decisions.size(), base_wal.decisions.size()) << k;
    for (std::size_t i = 0; i < base_wal.decisions.size(); ++i)
      ASSERT_TRUE(split_wal.decisions[i] == base_wal.decisions[i])
          << "shard " << k << " decision " << i
          << " diverged across the shutdown";
  }
}

TEST(ShardedService, ReopenReseedsTheRouterLedgerFromShardWals) {
  const wl::Workload workload = mixed_workload();
  TempDir dir("ledger");
  const ServiceRun first = run_service(workload, dir.sub("state"), 2);

  // A fresh service over the same state: open() must rebuild the exact
  // cumulative ledger, so future jobs route as if the process never died.
  batch::ShardedSystem system(durable_machine(), shard_config(2));
  IngestQueue ingest;
  ShardedService service(system, ingest, service_config(dir.sub("state")));
  EXPECT_TRUE(service.open());
  EXPECT_EQ(system.router().routed_cores(), first.routed_cores);
  for (std::size_t k = 0; k < kShards; ++k)
    EXPECT_EQ(system.router().routed_jobs(k), first.routed_jobs[k]) << k;
  ingest.close();
  service.run();
}

TEST(ShardedService, CancelOnTheGlobalQueueIsRejected) {
  batch::ShardedSystem system(durable_machine(), shard_config(1));
  IngestQueue ingest;
  ShardedService service(system, ingest, ServiceConfig{});
  ingest.cancel(Time::from_seconds(10), JobId{1});
  EXPECT_THROW(service.tick(), precondition_error);
}

}  // namespace
}  // namespace dbs::svc
